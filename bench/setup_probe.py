"""Time one set-up in a fresh interpreter.

Usage: python3 setup_probe.py <src-dir> '<json list of build items>'

Set-up is importing the package, loading each scenario and constructing the
systems and fields a workload builds before its first step. Each item names
a scenario (file or bundled name) and which of ``systems`` (the assembled
oscillatory RHS at every omega), ``lie`` (the reference averaged field) and
``generic`` (the generic bracket field) to build. Prints ``{"setup_s": s}``.
"""

import json
import sys
import time


def main() -> int:
    start = time.perf_counter()
    sys.path.insert(0, sys.argv[1])
    from ditherseek.dynamics import assemble_rhs
    from ditherseek.scenarios import load_scenario

    for item in json.loads(sys.argv[2]):
        sc = load_scenario(item["scenario"])
        if item.get("systems"):
            for w in sc.omegas:
                assemble_rhs(sc.build_system(w))
        if item.get("lie"):
            sc.lie_field()
        if item.get("generic"):
            sc.generic_lie_field()
    print(json.dumps({"setup_s": time.perf_counter() - start}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
