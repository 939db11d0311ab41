"""One cold worker session: start, import fusionlab, load the workload's
rules, run its timed calls, check their results.

    python3 perfbench/worker.py WORKLOAD SEED PART TRACE SMALL INJECT SPAWNED

PART is setup (load the rules only), main, probe or cli (the cli workload's
invocations through cli.main in this process). SPAWNED is the parent's
time.monotonic() just before it started this process, so set-up time counts
from before the interpreter started. Output is JSON lines on stdout: a plan,
one line per finished call, and a closing line; the parent charges every
planned call without a line as failed.
"""

import os
import sys
import time

import fusionlab

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
if not fusionlab.__file__.startswith(os.path.join(ROOT, "src", "")):
    sys.exit(f"fusionlab imported from {fusionlab.__file__}, not from this checkout")
WORKLOAD, SEED, PART, TRACE, SMALL, INJECT, SPAWNED = sys.argv[1:8]
TRACE, SMALL, SPAWNED = TRACE == "1", SMALL == "1", float(SPAWNED)

if TRACE:
    import spans

    if WORKLOAD == "cli":
        import fusionlab.cli
    MODULES = [fusionlab] + [m for k, m in sys.modules.items() if k.startswith("fusionlab.")]
    CACHES = spans.lru_functions(MODULES)
    # "missing-helper" stands for a later refactor that deletes a wrapped helper
    SKIP = {("expand", "_paint_cells")} if INJECT == "missing-helper" else set()
    TRACER = spans.Tracer(MODULES, SKIP)

import workloads

RULES = {
    name: fusionlab.parse_rule(fusionlab.builtin_text(name)) for name in workloads.RULES[WORKLOAD]
}
if WORKLOAD == "cli":
    import fusionlab.cli
READY = time.monotonic()

import contextlib  # noqa: E402  (after the set-up timestamp on purpose)
import dataclasses  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import pathlib  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402

import spans  # noqa: E402
from oracle import Mismatch  # noqa: E402


class OverLimit(BaseException):
    """Raised by SIGALRM when a call runs past its limit; a BaseException so
    no handler in the package under test can swallow it."""


def emit(**record):
    sys.stdout.write(json.dumps(record) + "\n")
    sys.stdout.flush()


def on_alarm(signum, frame):
    raise OverLimit()


def corrupt(result):
    """A wrong copy of a result, for the harness smoke check: the first
    field of a dataclass, a flipped bool, or an int plus one."""
    if dataclasses.is_dataclass(result):
        first = dataclasses.fields(result)[0].name
        return dataclasses.replace(result, **{first: corrupt(getattr(result, first))})
    return not result if isinstance(result, bool) else result + 1


def cli_ops(rng):
    """The cli workload's invocations as in-process cli.main calls, each
    from cold caches, with their output captured for the same checks."""
    root = pathlib.Path(ROOT)
    bare = CACHES if TRACE else spans.lru_functions(
        m for k, m in list(sys.modules.items()) if k.startswith("fusionlab")
    )
    ops = []
    for argv, check in workloads.cli_round(root, rng) + [workloads.cli_probe()]:

        def call(argv=argv):
            for f in bare:
                f.cache_clear()
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = fusionlab.cli.main(list(argv))
            return code, out.getvalue(), err.getvalue()

        def verify(result, argv=argv, check=check):
            check(argv, *result)

        ops.append(workloads.Op("fusion " + " ".join(argv), call, verify, workloads.CLI_LIMIT))
    return ops


def main():
    rng = random.Random(f"{WORKLOAD}:{SEED}:{PART}")
    if PART == "setup":
        ops = []
    elif PART == "cli":
        ops = cli_ops(rng)
    else:
        ops = workloads.build(WORKLOAD, PART, fusionlab, RULES, rng, SMALL)
    if TRACE:
        setup_self = sum(TRACER.self_s.values())
    emit(setup_s=READY - SPAWNED, plan=[[op.name, op.limit] for op in ops])
    signal.signal(signal.SIGALRM, on_alarm)
    deferred = []
    for i, op in enumerate(ops):
        call = op.call
        if i == 0 and INJECT == "raise":
            def call():
                raise RuntimeError("injected fault")
        error = None
        signal.setitimer(signal.ITIMER_REAL, op.limit)
        start = time.perf_counter()
        try:
            result = call()
        except OverLimit:
            error = f"over its {op.limit} s limit"
        except Exception as e:  # any failure of the call is a failed operation
            error = f"{type(e).__name__}: {e}"[:300]
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        seconds = time.perf_counter() - start
        if error is None:
            if i == 0 and INJECT == "corrupt":
                result = corrupt(result)
            try:
                later = op.check(result)
                if later is not None:
                    deferred.append((i, later))
            except Mismatch as e:
                error = f"wrong result: {e}"
            except Exception as e:
                error = f"check raised {type(e).__name__}: {e}"[:300]
            del result
        emit(op=i, seconds=seconds, error=error)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    layers = None
    if TRACE:
        layers = TRACER.totals(CACHES)
        layers["trace.self_sum_s"] -= setup_self
        TRACER.write(os.path.join(ROOT, ".perfbench", f"spans-{WORKLOAD}-{SEED}-{PART}.json"))
    late = []
    for i, later in deferred:
        try:
            later()
        except Mismatch as e:
            late.append([i, f"wrong result: {e}"])
        except Exception as e:
            late.append([i, f"check raised {type(e).__name__}: {e}"[:300]])
    emit(rss_mb=rss_mb, late=late, layers=layers)


if __name__ == "__main__":
    main()
