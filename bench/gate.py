"""Output gate: every job's outputs against references frozen at one commit.

``references.json`` holds, per workload:

* ``steps``, ``diverged`` and ``verdicts``: seed-independent, checked for
  every seed. Every integration must take exactly its reference number of
  steps, so a coarser step policy fails the gate even where it would keep
  the numbers within tolerance.
* ``seeds``: the numeric outputs for the default seed and one held-out seed,
  checked only when the run uses one of them, to 1e-9 relative tolerance
  (with a 1e-12 absolute floor for values that cross zero).

Each comparison is one check; ``error_rate`` is failed checks over attempted
checks. Repeated jobs of one run must also write byte-identical artefacts.
"""

from __future__ import annotations

import hashlib
import json
import math
from itertools import zip_longest
from pathlib import Path

from workloads import AGREEMENT_BOUND, Observation

REFERENCES = Path(__file__).resolve().parent / "references.json"
DEFAULT_SEED = 2023
HELD_OUT_SEED = 7
REL_TOL = 1e-9
ABS_TOL = 1e-12


def _close(a, b) -> bool:
    if isinstance(a, str) or isinstance(b, str):
        try:
            a, b = float(a), float(b)
        except (TypeError, ValueError):
            return a == b
    if a is None or b is None:
        return False
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return math.isclose(a, b, rel_tol=REL_TOL, abs_tol=ABS_TOL)


def reference_entry(obs: Observation) -> dict:
    return {"steps": obs.steps, "diverged": obs.diverged, "verdicts": obs.verdicts}


def load_references(workload: str) -> dict:
    with open(REFERENCES, encoding="utf-8") as fh:
        return json.load(fh)["workloads"][workload]


def check(obs: Observation, ref: dict, seed: int) -> list[tuple[str, bool]]:
    """Named pass/fail results of one job's outputs."""
    checks = [("integrations", len(obs.steps) == len(ref["steps"]))]
    checks += [(f"steps[{k}]", a == b)
               for k, (a, b) in enumerate(zip_longest(obs.steps, ref["steps"]))]
    checks.append(("diverged", obs.diverged == ref["diverged"]))
    checks += [(f"verdict[{k}]", a == b)
               for k, (a, b) in enumerate(zip_longest(obs.verdicts, ref["verdicts"]))]
    checks += [(f"agreement[{k}]", v <= AGREEMENT_BOUND) for k, v in enumerate(obs.bounded)]
    expected = ref["seeds"].get(str(seed))
    if expected is not None:
        for key, want in expected.items():
            got = obs.values.get(key, [])
            ok = len(got) == len(want) and all(_close(a, b) for a, b in zip(got, want))
            checks.append((f"value:{key}", ok))
    return checks


def artefact_hashes(out: Path, patterns: tuple[str, ...]) -> dict[str, str]:
    hashes = {}
    for pattern in patterns:
        for path in sorted(out.glob(pattern)):
            hashes[path.name] = hashlib.sha256(path.read_bytes()).hexdigest()
    return hashes


def determinism(first: dict[str, str], now: dict[str, str]) -> list[tuple[str, bool]]:
    names = sorted(set(first) | set(now))
    return [(f"identical:{name}", first.get(name) == now.get(name)) for name in names]
