"""urnengine benchmark: one workload, measured in whole rounds, checked.

    python3 perfbench/run.py --workload mc_two_level --seed 1 --seconds 10 --trace 0

Run from the repository root; the program is imported from ./src.  A run:

1. runs the self-tests of its checks (selftest.py);
2. with --trace 0, times nine fresh processes that import urnengine and
   build the workload's rings (probe.py), spread over the run: set-up time;
3. builds the workload's inputs from --seed;
4. runs rounds of the workload's fixed operations, one after another (a
   closed loop), until the rounds add up to --seconds, and always at least
   one; every later round must reproduce the first round's outputs;
5. checks the first round against the oracles, outside the timed rounds;
6. prints one JSON line: with --trace 0 the end-to-end metrics, with
   --trace 1 the per-layer metrics.  The traced result carries every
   per-layer metric, so a traced run also runs one round of each other
   workload; it writes its spans to .perfbench_out/trace-<workload>-<seed>.json.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SETUP_SAMPLES = 9
SETUP_PAUSE_S = 0.5


class SetupProbe:
    """Set-up time: wall time of a fresh process that imports urnengine and
    builds the workload's rings (probe.py), taken SETUP_SAMPLES times.

    Shared hosts have slow spells of a few seconds; samples spread over the
    run (one before the first round, one after each round, the rest after
    the last round with a pause between them) keep one spell from setting
    the median.
    """

    def __init__(self, root: str, workload: str, seed: int):
        self.argv = [sys.executable, os.path.join(HERE, "probe.py"), "--workload", workload, "--seed", str(seed)]
        self.root = root
        self.times: list[float] = []

    def sample(self) -> None:
        if len(self.times) >= SETUP_SAMPLES:
            return
        t0 = time.perf_counter()
        proc = subprocess.Popen(self.argv, cwd=self.root, stdin=subprocess.DEVNULL)
        # a blocking wait: Popen.wait with a timeout polls every 50 ms
        _, status, _ = os.wait4(proc.pid, 0)
        self.times.append(time.perf_counter() - t0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe exited with {proc.returncode}")

    def median(self) -> float:
        while len(self.times) < SETUP_SAMPLES:
            time.sleep(SETUP_PAUSE_S)
            self.sample()
        return statistics.median(self.times)


def _rounds(wl, seconds: float, between):
    """Closed loop of whole rounds.

    Returns the wall and CPU time of each round, the first round's results,
    and for each later round the state of each operation against the first
    round: "same", "differs" or "raised".
    """
    walls, cpus, problems = [], [], []
    reference = ref_keys = None
    while sum(walls) < seconds or not walls:
        c0, k0 = time.process_time(), os.times()
        t0 = time.perf_counter()
        with wl.tracer.span(f"round:{wl.name}"):
            results = wl.run_round()
        walls.append(time.perf_counter() - t0)
        k1 = os.times()
        cpus.append(time.process_time() - c0 + (k1.children_user - k0.children_user)
                    + (k1.children_system - k0.children_system))
        between()
        keys = {op: (None if isinstance(r, Exception) else wl.key(op, r)) for op, r in results.items()}
        if reference is None:
            reference, ref_keys = results, keys
        else:
            problems.append({op: "raised" if keys[op] is None else "same" if keys[op] == ref_keys[op] else "differs"
                             for op in wl.ops()})
    return walls, cpus, reference, problems


def _tally(wl, reference, repeats, correct_msgs: list[str]) -> tuple[int, int, bool]:
    """Status of every operation of every round -> (attempted, failed, correct)."""
    status, messages = wl.check(reference)
    correct_msgs.extend(messages)
    attempted = failed = 0
    wrong = False
    for repeat in [None, *repeats]:
        for op in wl.ops():
            s = status[op]
            if repeat is not None and repeat[op] == "raised":
                s = "failed"
            elif repeat is not None and repeat[op] == "differs":
                s = "wrong"
                correct_msgs.append(f"{op}: output differs from the first round's")
            attempted += 1
            failed += s == "failed"
            wrong |= s == "wrong"
    return attempted, failed, not wrong


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="urnengine benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "urnengine", "__init__.py")):
        print("perfbench: no urnengine sources under ./src; run from the repository root", file=sys.stderr)
        return 2
    sys.path.insert(0, src)

    import inputs
    import selftest
    import spans
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    problems = selftest.run()
    if problems:
        print("perfbench: self-test failed:\n  " + "\n  ".join(problems), file=sys.stderr)
        return 3
    os.makedirs(os.path.join(root, ".perfbench_out"), exist_ok=True)

    probe = SetupProbe(root, args.workload, args.seed)
    between = (lambda: None) if args.trace else probe.sample
    between()
    tracer = spans.Tracer(enabled=bool(args.trace))
    specs = {name: inputs.make(name, args.seed) for name in workloads.WORKLOADS}
    wl = workloads.WORKLOADS[args.workload](specs[args.workload], tracer, root)
    import urnengine

    if not urnengine.__file__.startswith(src):
        print(f"perfbench: urnengine imported from {urnengine.__file__}, not ./src", file=sys.stderr)
        return 2

    walls, cpus, reference, repeats = _rounds(wl, args.seconds, between)
    peak_kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss, wl.child_peak_kb)
    messages: list[str] = []
    attempted, failed, correct = _tally(wl, reference, repeats, messages)

    if args.trace:
        for name, cls in workloads.WORKLOADS.items():
            if name == args.workload:
                continue
            with tracer.span(f"companion:{name}"):
                other = cls(specs[name], tracer, root)
                results = other.run_round()
            status, msgs = other.check(results)
            messages.extend(f"{name} (companion round) {m}" for m in msgs)
            correct &= "wrong" not in status.values()
        metrics = workloads.layer_metrics(tracer, specs)
        tracer.write(os.path.join(root, ".perfbench_out", f"trace-{args.workload}-{args.seed}.json"), {
            "workload": args.workload, "seed": args.seed, "traced_round_s": walls,
            "traced_run_s": statistics.median(walls),
        })
    else:
        metrics = {
            "run_s": (statistics.median(walls), "s"),
            "cpu_s": (statistics.median(cpus), "s"),
            "peak_rss_mb": (peak_kb / 1024.0, "MB"),
            "setup_s": (probe.median(), "s"),
        }
    for m in messages:
        print(f"perfbench: {m}", file=sys.stderr)
    print(f"perfbench: {args.workload} seed {args.seed}: {len(walls)} rounds, round wall times "
          + ", ".join(f"{w:.3f}" for w in walls), file=sys.stderr)
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
