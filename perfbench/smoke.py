"""Smoke check of the harness itself, at the smallest workload sizes.

    python3 perfbench/smoke.py

It runs every workload small and expects each call to pass except the
known cold deep-horizon probes. Then it injects three faults and expects
each to show: a corrupted result and a raised exception are counted as
failed calls, and a wrapped helper that is missing reports zero time
instead of an error. Exits 1 when an expectation does not hold.
"""

import random
import sys

import run
import workloads


def expect(ok, what):
    print(("ok    " if ok else "FAIL  ") + what)
    return ok


def unexpected(ops):
    return [op for op in ops if op["error"] and "(cold)" not in op["name"]
            and op["name"] != "fusion " + " ".join(workloads.CLI_PROBE)]


def main() -> int:
    good = True
    for name in ("tiling2d", "hull_sweep", "words1d"):
        p = run.library_pass(name, 1, small=True)
        bad = unexpected(p["ops"])
        good &= expect(not bad, f"{name} small: {len(p['ops'])} calls, {p['wall']:.2f} s charged, "
                                f"unexpected failures {[op['name'] for op in bad]}")
    calls = workloads.cli_round(run.ROOT, random.Random("smoke"))
    p = run.cli_pass(calls, run.child_env("cli", 1))
    bad = unexpected(p["ops"])
    good &= expect(not bad, f"cli round: {len(p['ops'])} invocations, unexpected failures "
                            f"{[(op['name'], op['error']) for op in bad]}")
    probe = run.cli_call(*workloads.cli_probe(), run.child_env("cli", 1))
    print(f"      cli probe: {probe['error'] or 'passes'}")

    first = run.library_pass("words1d", 1, small=True, inject="corrupt")["ops"][0]
    good &= expect((first["error"] or "").startswith("wrong result"),
                   f"corrupted result counted as failed: {first['name']}: {first['error']}")
    p = run.library_pass("hull_sweep", 1, small=True, inject="raise")
    first = p["ops"][0]
    good &= expect("injected fault" in (first["error"] or "") and first["seconds"] < first["limit"]
                   and run.charged(first) == first["limit"],
                   f"raised exception counted as failed and charged its limit: {first['error']}")
    good &= expect(not unexpected(p["ops"][1:]), "the calls after the exception still run and pass")

    plain = run.library_pass("tiling2d", 1, trace=True, small=True)["layers"]
    missing = run.library_pass("tiling2d", 1, trace=True, small=True, inject="missing-helper")
    good &= expect(plain["expand.expand_2d.paint_s"] > 0 and missing["layers"]["expand.expand_2d.paint_s"] == 0
                   and not unexpected(missing["ops"]),
                   "a missing wrapped helper reports zero time and no error")
    return 0 if good else 1


if __name__ == "__main__":
    sys.exit(main())
