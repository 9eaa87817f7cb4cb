"""Record the reference outputs the benchmark checks against.

The files in ``ref/`` were written by this script at the commit that
introduced the benchmark, whose outputs are the reference: every case
report (without its ``stats``, which a pair-strategy change may move) and
reduced basis, and the conjugation status of every pair of certified
families.  Re-running it on a later commit would make the checks compare
that commit with itself.

    python3 perfbench/record_refs.py
"""

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from rbu3 import catalog, transform  # noqa: E402
from rbu3.groebner import Limits, buchberger  # noqa: E402
from rbu3.operators import generate_system  # noqa: E402


def main():
    cases = {}
    for name in catalog.case_preset_names():
        spec = catalog.case_preset(name)
        report = catalog.run_case(spec).to_json()
        report.pop("stats")
        system, shape = generate_system(spec.ansatz())
        if spec.localize:
            system = system.localize(shape.expand(spec.localize, spec.aliases))
        gb = buchberger(system, Limits(max_pairs=200000, deadline=600.0))
        cases[name] = {"report": report, "basis": gb.to_json()["basis"]}
    certified = [e for e in catalog.build_catalog(strict=False) if e.residual_zero]
    pairs = {}
    for i, a in enumerate(certified):
        for b in certified[i + 1:]:
            search = transform.find_conjugation(a.operator, b.operator,
                                                allow_theta=True)
            pairs[f"{a.id}|{b.id}"] = search.status
    out = ROOT / "perfbench" / "ref"
    out.mkdir(exist_ok=True)
    for name, data in (("cases.json", cases), ("orbits_pairs.json", pairs)):
        with open(out / name, "w") as fh:
            json.dump(data, fh, indent=1, sort_keys=True)
            fh.write("\n")


if __name__ == "__main__":
    main()
