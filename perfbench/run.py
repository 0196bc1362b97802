"""End-to-end and per-layer benchmark of the sheafplectic CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the library is used from ``src/``
and nothing needs installing.  One client drives the real CLI
(``python -m sheafplectic -m MANIFEST COMMAND ...``) as a subprocess, one
call at a time (closed loop).  Manifests are generated from ``--seed`` into
a scratch directory inside the checkout.

The run repeats whole passes over the workload's calls for about
``--seconds`` (at least two passes).  ``validate`` calls on the workload's
manifests, before the loop and between its calls, give ``setup_s``: the
fixed cost (start-up, import, parse, topology check, render) every call
pays.  Every call is checked against the outcome its manifest's
construction implies, and its stdout must be byte-identical to the first
run of the same call.

With ``--trace 0`` the last line reports the end-to-end metrics; the
lines before it add the tail percentile and the failed fraction.  With
``--trace 1`` each call runs untraced and then through ``shim.py``, which
records spans around the calls into each module; the last line reports
per-layer times and counts per pass, and the tracing overhead.

``--workload all`` runs every workload in turn and prints one result line
for each.
"""

from __future__ import annotations

import argparse
import json
import os
import selectors
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import measure  # noqa: E402
import workloads  # noqa: E402

CALL_TIMEOUT_S = 20.0  # a call running longer counts as failed
HARD_LIMIT_S = 140.0  # no call starts after this much of a run
SETUP_CALLS = 5  # validate calls before the loop
SETUP_EVERY = 4  # and one after every this many calls in it
MIN_PASSES = 2  # untraced runs

END_TO_END = (("op_s.p50", "s"), ("ops_per_s", "1/s"), ("peak_rss_mb", "MB"),
              ("setup_s", "s"))
LAYER_TIMES = ("space.self_s", "sheaf.check_completeness_s", "sheaf.self_s",
               "exactalg.rref_s", "exactalg.matmul_s", "exactalg.self_s",
               "cli.import_s", "cli.parse_manifest_s", "cli.self_s",
               "pairing.check_hom_exactness_s", "pairing.self_s",
               "symplectic.darboux_s", "symplectic.classify_s",
               "symplectic.reduce_s", "symplectic.self_s", "suites.self_s")
LAYER_COUNTS = ("space.covers", "space.irredundant_covers.calls",
                "sheaf.sheafify.calls", "exactalg.rref.calls",
                "exactalg.rref.cells", "exactalg.rref.max_bits",
                "exactalg.matmul.calls", "exactalg.matmul.mults",
                "pairing.annihilator.calls")

clock = time.perf_counter


class Result:
    def __init__(self, wall, code, out, err, timed_out, rss_kb):
        self.wall = wall
        self.code = code
        self.out = out
        self.err = err
        self.timed_out = timed_out
        self.rss_kb = rss_kb


def spawn(argv, env, cwd, timeout):
    """Run one process to exit with both pipes drained; wall time covers
    spawn to exit, max RSS comes from wait4."""
    t0 = clock()
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, env=env, cwd=cwd)
    bufs = {proc.stdout.fileno(): bytearray(), proc.stderr.fileno(): bytearray()}
    timed_out = False
    with selectors.DefaultSelector() as sel:
        sel.register(proc.stdout, selectors.EVENT_READ)
        sel.register(proc.stderr, selectors.EVENT_READ)
        while sel.get_map():
            left = t0 + timeout - clock()
            if left <= 0:
                timed_out = True
                proc.kill()
                break
            for key, _ in sel.select(left):
                chunk = os.read(key.fd, 1 << 16)
                if chunk:
                    bufs[key.fd].extend(chunk)
                else:
                    sel.unregister(key.fileobj)
    _, status, usage = os.wait4(proc.pid, 0)
    wall = clock() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    out = bytes(bufs[proc.stdout.fileno()])
    err = bytes(bufs[proc.stderr.fileno()])
    proc.stdout.close()
    proc.stderr.close()
    return Result(wall, proc.returncode, out, err, timed_out, usage.ru_maxrss)


class Runner:
    """Runs calls, applies the correctness gate and tallies failures."""

    def __init__(self, root, workdir, hard_stop):
        self.root = root
        self.env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
        self.spans_path = os.path.join(workdir, "spans.json")
        self.hard_stop = hard_stop
        self.references = {}
        self.attempted = 0
        self.failures = {}

    def argv(self, call, traced):
        head = [sys.executable]
        if traced:
            head += [os.path.join(HERE, "shim.py"), self.spans_path]
        else:
            head += ["-m", "sheafplectic"]
        return head + ["-m", call.manifest] + call.argv

    def check(self, key, call, res):
        reason = measure.classify_failure(call, res.code, res.out, res.err,
                                          res.timed_out,
                                          self.references.get(key))
        if key not in self.references and not res.timed_out:
            self.references[key] = res.out
        return reason

    def run(self, key, call, traced=False, count=True):
        res = spawn(self.argv(call, traced), self.env, self.root,
                    CALL_TIMEOUT_S)
        reason = self.check(key, call, res)
        if count:
            self.attempted += 1
            if reason is not None:
                tag = "%s: %s%s" % (reason, call.label,
                                    " (traced)" if traced else "")
                self.failures[tag] = self.failures.get(tag, 0) + 1
        return res, reason

    def read_spans(self):
        with open(self.spans_path, "r", encoding="utf-8") as handle:
            doc = json.load(handle)
        os.remove(self.spans_path)
        return doc


def validate_next(runner, plan, walls):
    """One validate call on the next manifest in turn; its wall time is a
    set-up sample."""
    i = len(walls) % len(plan.validates)
    res, _ = runner.run(("validate", i), plan.validates[i])
    walls.append(res.wall)


def probe_known_defects(runner, plan):
    """Run each known-defect call once, outside the tally."""
    lines = []
    for i, call in enumerate(plan.known_defects):
        res, reason = runner.run(("defect", i), call, count=False)
        lines.append("known-defect %s: expected exit %d/%s, %s"
                     % (call.label, call.exit_code, call.verdict,
                        "now passes" if reason is None
                        else "still fails (%s, exit %d)" % (reason, res.code)))
    return lines


def timed_passes(seconds, min_passes, one_pass):
    """Repeat whole passes until about ``seconds`` have gone by, and at
    least ``min_passes``.  Returns the number of complete passes and the
    loop's wall time."""
    start = clock()
    passes = 0
    while one_pass():
        passes += 1
        elapsed = clock() - start
        if passes >= min_passes and \
                elapsed + 0.5 * elapsed / passes >= seconds:
            break
    return passes, clock() - start


def run_untraced(runner, plan, seconds):
    """End-to-end metrics.  Set-up samples are taken before the loop and
    between calls throughout it, so ``setup_s`` is a median over the whole
    run rather than over one moment of a noisy host."""
    setup_walls = []
    for _ in range(SETUP_CALLS):
        validate_next(runner, plan, setup_walls)
    walls = []
    peak_kb = 0

    def one_pass():
        nonlocal peak_kb
        for i, call in enumerate(plan.calls):
            if clock() > runner.hard_stop:
                return False
            res, _ = runner.run(i, call)
            walls.append(res.wall)
            peak_kb = max(peak_kb, res.rss_kb)
            if i % SETUP_EVERY == SETUP_EVERY - 1:
                validate_next(runner, plan, setup_walls)
        return True

    passes, loop_s = timed_passes(seconds, MIN_PASSES, one_pass)
    # The tail percentile follows from the smallest sample count a run can
    # have, so it is the same in every run of a workload.
    tail_p = measure.tail_percentile(MIN_PASSES * len(plan.calls))
    metrics = {
        "op_s.p50": measure.median(walls),
        "ops_per_s": len(walls) / sum(walls),
        "peak_rss_mb": peak_kb / 1024.0,
        "setup_s": measure.median(setup_walls),
    }
    notes = ["%d passes of %d calls, %d calls timed in %.1f s; %d set-up "
             "calls" % (passes, len(plan.calls), len(walls), loop_s,
                        len(setup_walls)),
             "op_s.tail %.6g s (p%g of %d calls; printed, not gated)"
             % (measure.percentile(walls, tail_p), tail_p, len(walls))]
    return metrics, notes


def run_traced(runner, plan, seconds):
    times = {}
    first_counts = None
    walls = {"untraced": 0.0, "traced": 0.0}

    def one_pass():
        nonlocal first_counts
        counts = {}
        pass_times = {}
        for i, call in enumerate(plan.calls):
            if clock() > runner.hard_stop:
                return False
            plain, _ = runner.run(i, call)
            traced, _ = runner.run(i, call, traced=True)
            walls["untraced"] += plain.wall
            walls["traced"] += traced.wall
            try:
                doc = runner.read_spans()
            except (OSError, ValueError):
                continue  # the gate has already counted this call as failed
            self_time, inclusive = measure.aggregate(doc["names"], doc["spans"])
            for layer, value in self_time.items():
                key = "%s.self_s" % layer
                pass_times[key] = pass_times.get(key, 0.0) + value
            for name, value in inclusive.items():
                key = "%s_s" % name
                pass_times[key] = pass_times.get(key, 0.0) + value
            for key, value in doc["counters"].items():
                if key.endswith("max_bits"):
                    counts[key] = max(counts.get(key, 0), value)
                else:
                    counts[key] = counts.get(key, 0) + value
        if first_counts is None:
            first_counts = counts
        elif counts != first_counts:
            runner.failures["counts differ between passes"] = \
                runner.failures.get("counts differ between passes", 0) + 1
        for key, value in pass_times.items():
            times[key] = times.get(key, 0.0) + value
        return True

    passes, loop_s = timed_passes(seconds, 1, one_pass)
    times["cli.import_s"] = times.get("import_s", 0.0)
    metrics = {}
    for name in LAYER_COUNTS:
        metrics[name] = (first_counts or {}).get(name, 0)
    for name in LAYER_TIMES:
        metrics[name] = times.get(name, 0.0) / max(1, passes)
    metrics["trace.overhead_frac"] = \
        walls["traced"] / walls["untraced"] - 1.0 if walls["untraced"] else 0.0
    notes = ["%d traced passes of %d calls in %.1f s; counts and times are "
             "per pass" % (passes, len(plan.calls), loop_s)]
    return metrics, notes


def run_workload(root, name, seed, seconds, trace):
    base = os.path.join(root, ".perfbench_work")
    workdir = os.path.join(base, "%s-%d" % (name, os.getpid()))
    os.makedirs(workdir, exist_ok=True)
    try:
        plan = workloads.WORKLOADS[name](seed, workdir)
        runner = Runner(root, workdir, clock() + HARD_LIMIT_S)
        validate_next(runner, plan, [])  # untimed: fills the bytecode cache
        notes = probe_known_defects(runner, plan)
        if trace:
            metrics, more = run_traced(runner, plan, seconds)
            units = {m: ("count" if m in LAYER_COUNTS else "s") for m in metrics}
            units["exactalg.rref.max_bits"] = "bits"
            units["trace.overhead_frac"] = "fraction"
        else:
            metrics, more = run_untraced(runner, plan, seconds)
            units = dict(END_TO_END)
        notes += more
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(base)
        except OSError:
            pass
    failed = sum(runner.failures.values())
    print("workload %s, seed %d, trace %d" % (name, seed, trace))
    for line in notes:
        print("  " + line)
    for metric, value in metrics.items():
        print("  %-32s %14.6g %s" % (metric, value, units[metric]))
    print("  failed_frac %.4f (%d of %d calls)"
          % (failed / max(1, runner.attempted), failed, runner.attempted))
    for tag, count in sorted(runner.failures.items()):
        print("  FAILED x%d %s" % (count, tag))
    result = {
        "correct": failed == 0,
        "attempted": runner.attempted,
        "failed": failed,
        "metrics": {m: {"value": v, "unit": units[m]} for m, v in metrics.items()},
    }
    print(json.dumps(result), flush=True)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    root = os.getcwd()
    for need in ("src/sheafplectic/cli.py", "manifests/point_rank2.json"):
        if not os.path.isfile(os.path.join(root, need)):
            sys.stderr.write("run.py: %s not found; run from the root of a "
                             "sheafplectic source checkout\n" % need)
            return 2
    names = sorted(workloads.WORKLOADS) if args.workload == "all" \
        else [args.workload]
    for name in names:
        run_workload(root, name, args.seed, args.seconds, args.trace)
    return 0


if __name__ == "__main__":
    sys.exit(main())
