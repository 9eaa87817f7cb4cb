"""``python -m rbu3``: the command-line front end."""
from .cli import main
raise SystemExit(main())
