"""Correctness checks over what the measured processes reported.

Pure functions: each returns one message per failed operation, so the
caller can count failures against attempts.  ``selftest.py`` feeds them
deliberately wrong references to prove that each one trips.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

RESULT_FIELDS = ("arch", "predicted", "lambda")


def check_searches(searches: Sequence[dict], expected: Sequence[dict],
                   references: Sequence[Optional[dict]]) -> List[str]:
    """Each expected search ran and matches its reference bit for bit.

    ``expected[i]`` names a ``target`` and ``seed``; ``references[i]`` holds
    the ``arch``, final ``predicted`` metric and final ``lambda`` that search
    must reproduce exactly (floats compare with ``!=``, not a tolerance).
    """
    failures = []
    ran = {(s["target"], s["seed"]): s for s in searches}
    for want, reference in zip(expected, references):
        key = (want["target"], want["seed"])
        got = ran.get(key)
        if got is None:
            failures.append(f"search target={key[0]:g} seed={key[1]} "
                            f"did not run")
        elif reference is None:
            failures.append(f"search target={key[0]:g} seed={key[1]} has "
                            f"no reference; rerun make_reference.py")
        else:
            wrong = [f for f in RESULT_FIELDS if got[f] != reference[f]]
            if wrong:
                failures.append(
                    f"search target={key[0]:g} seed={key[1]}: "
                    f"{', '.join(wrong)} differ from the reference "
                    f"(got {[got[f] for f in wrong]}, "
                    f"want {[reference[f] for f in wrong]})")
    return failures


def check_serve(out: dict, expected_records: int) -> List[str]:
    """No failed request, exact /predict rows, monotone and final records."""
    failures = list(out["errors"])
    served, direct = out["predict_served"], out["predict_direct"]
    if len(served) != len(direct):
        failures.append(f"{len(served)} /predict responses but "
                        f"{len(direct)} direct predictions")
    for i, (got, want) in enumerate(zip(served, direct)):
        if got != want:
            failures.append(f"/predict request {i}: rows differ from a "
                            f"direct predict_population")
    for client, seen in enumerate(out["records_seen"]):
        for before, after in zip(seen, seen[1:]):
            if after < before:
                failures.append(f"client {client}: /stats records fell "
                                f"from {before} to {after}")
    if out["final_records"] != expected_records:
        failures.append(f"/stats reports {out['final_records']} records at "
                        f"the end, expected {expected_records}")
    return failures
