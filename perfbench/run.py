#!/usr/bin/env python3
"""Run one streamshare benchmark workload and print its metrics.

    python3 perfbench/run.py --workload payout --seed 0 --seconds 20 --trace 0

The run builds the workload's seeded catalogs, computes every answer once
in-process (the reference), runs one untimed warm-up batch of CLI commands
and then repeats the batch, one command at a time, until ``--seconds`` are
used up.  Every CLI output is checked against the reference and against
the invariants in :mod:`checks`.  Times are scaled to a fixed machine
speed measured by ``calibrate.py`` after every command (see README.md).

``--trace 0`` reports the end-to-end metrics of the subprocess runs.
``--trace 1`` follows every CLI batch with a traced in-process batch and
reports the per-layer metrics.  The last line of stdout is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``; the lines
before it list every metric, and the full result (environment, input
shapes, all metrics, failures) is written to ``perfbench/out/``.  The program is taken from ``src/`` next to this
directory; without it the run exits with status 1.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

if not (SRC / "streamshare" / "__init__.py").is_file():
    sys.exit(f"error: the streamshare sources are missing: no {SRC / 'streamshare'}")
sys.path.insert(0, str(SRC))

import catalogs  # noqa: E402
from checks import judge  # noqa: E402
from spans import Tracer  # noqa: E402
from workloads import WORKLOADS, Workload, run_batch  # noqa: E402

DEFAULT_SEED = 0
SETUP_REPEATS = 5
MIN_BATCHES = 3
COMMAND_TIMEOUT_S = 150
DIGESTS = HERE / "digests.json"
CALIBRATE = HERE / "calibrate.py"
RSS = HERE / "rss.py"
REF_S = 0.1  # calibrate.py's time on an idle machine: the speed times are scaled to

# Metrics on the last output line; the names and units match BENCHMARK.json.
END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mib": "MiB"}
PER_LAYER = {"cli.startup_s": "s", "cli.overhead_s": "s", "lib.self_s": "s",
             "lib.calls": "count", "out.max_den_digits": "count"}


def summary(values: list[float]) -> dict:
    """Median, sample count, and the highest percentile with ten samples beyond it."""
    out = {"value": statistics.median(values), "n": len(values)}
    for q in (99.9, 99, 90):
        if len(values) * (100 - q) / 100 >= 10:
            cuts = statistics.quantiles(values, n=1000, method="inclusive")
            out[f"p{q:g}"] = cuts[round(q * 10) - 1]
            break
    return out


class Run:
    """One workload at one seed: inputs, reference answers, CLI operations."""

    def __init__(self, workload: Workload, seed: int, work: Path):
        self.workload = workload
        self.seed = seed
        self.work = work
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
        self.attempted = 0
        self.failures: list[str] = []
        self.failed_ops = 0
        self.stored_digests: dict[str, str] | None = None
        self.verdicts: dict[str, list[tuple[str, list[str]]]] = {}
        self.ref_times: list[float] = []
        self.peak_rss_kib = 0
        if seed == DEFAULT_SEED and WORKLOADS.get(workload.name) == workload:
            stored = json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}
            self.stored_digests = stored.get(workload.name, {})

    # -- set-up and reference ------------------------------------------

    def setup(self, repeats: int) -> tuple[list[float], list[float]]:
        """Write the catalogs and start the CLI, ``repeats`` times.

        Returns the set-up times and the ``streamshare --help`` times.
        """
        setup_times, startup_times = [], []
        for _ in range(repeats):
            start = perf_counter()
            matrices = {}
            for spec in self.workload.catalogs:
                matrices[spec.name] = catalogs.generate(spec, self.seed)
                (self.work / f"{spec.name}.csv").write_text(catalogs.to_csv(matrices[spec.name]))
            startup = self.startup()
            setup_times.append(perf_counter() - start)
            startup_times.append(startup)
            self.ref_time()
        self.texts = {name: (self.work / f"{name}.csv").read_text() for name in matrices}
        self.shapes = {name: catalogs.shape(m) for name, m in matrices.items()}
        return setup_times, startup_times

    def reference(self, tracer: Tracer) -> None:
        tracer.batch = 0
        self.ref = run_batch(self.workload, self.texts, self.shapes, self.seed, tracer)
        # Round-trip through JSON so lists and tuples compare alike.
        self.expected = json.loads(json.dumps(self.ref.payloads))

    # -- machine speed -------------------------------------------------

    def ref_time(self) -> None:
        """Record one wall time of the reference program."""
        start = perf_counter()
        subprocess.run([sys.executable, str(CALIBRATE)], cwd=self.work,
                       capture_output=True, check=True, timeout=COMMAND_TIMEOUT_S)
        self.ref_times.append(perf_counter() - start)

    @property
    def scale(self) -> float:
        """Factor that brings this run's times to the speed where calibrate.py takes REF_S.

        The reference runs after every command, so its median tracks the
        machine's speed over the whole run.
        """
        return REF_S / statistics.median(self.ref_times)

    # -- CLI operations --------------------------------------------------

    def startup(self) -> float:
        """Time ``streamshare --help``: interpreter, click and package import."""
        seconds, code, _, stderr = self._spawn(["--help"])
        self.attempted += 1
        if code != 0 or "Traceback" in stderr:
            self.fail("--help", [f"exit: code {code}: {stderr.strip()[-200:]}"])
        return seconds

    def _spawn(self, args: list[str], rss: bool = False) -> tuple[float, int, str, str]:
        """Run one CLI command; return its wall seconds, exit code, stdout and stderr.

        With ``rss`` the command runs under ``rss.py``, which records its peak RSS.
        """
        command = [sys.executable, "-m", "streamshare.cli", *args]
        rss_file = self.work / "rss.txt"
        if rss:
            command = [sys.executable, str(RSS), str(rss_file), *command]
        start = perf_counter()
        # Its own process group, so that ending it also ends what it started.
        with subprocess.Popen(command, cwd=self.work, env=self.env, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, start_new_session=True) as proc:
            try:
                stdout, stderr = proc.communicate(timeout=COMMAND_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.communicate()
                return perf_counter() - start, -1, "", "timed out"
            except BaseException:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.wait()
                raise
        seconds = perf_counter() - start
        if rss:
            self.peak_rss_kib = max(self.peak_rss_kib, int(rss_file.read_text()))
        return (seconds, proc.returncode, stdout.decode("utf-8", "replace"),
                stderr.decode("utf-8", "replace"))

    def cli_batch(self, rss: bool = False) -> list[float]:
        """Run the workload's commands once, in order; return each one's wall seconds."""
        results = []
        for cmd in self.workload.commands:
            results.append(self._spawn(cmd.args(self.seed), rss))
            self.ref_time()
        self.outputs = {" ".join(cmd.args(self.seed)): (cmd, stdout)
                        for cmd, (_, _, stdout, _) in zip(self.workload.commands, results)}
        # Byte-identical outputs get identical verdicts, so each distinct
        # batch output is judged once.
        key = hashlib.sha256(repr([r[1:] for r in results]).encode()).hexdigest()
        if key not in self.verdicts:
            self.verdicts[key] = self._judge(results)
        for label, failures in self.verdicts[key]:
            self.attempted += 1
            if failures:
                self.fail(label, failures)
        return [r[0] for r in results]

    def _judge(self, results) -> list[tuple[str, list[str]]]:
        verdicts = []
        allocated: dict[tuple[str, str], dict] = {}
        for cmd, expected, (_, code, stdout, stderr) in zip(
                self.workload.commands, self.expected, results):
            label = " ".join(cmd.args(self.seed))
            stored = None
            if self.stored_digests is not None:
                stored = self.stored_digests.get(label, "missing")
            problem = self.ref.problems.get(cmd.catalog)
            failures = judge(cmd, code, stdout, stderr, expected, problem, allocated, stored)
            verdicts.append((label, failures))
            if cmd.kind == "allocate":
                # A failed allocate is already counted; later cross-checks
                # use the reference instead, so one bad output fails once.
                rewards = expected["rewards"] if failures else json.loads(stdout)["rewards"]
                allocated[(cmd.catalog, expected["method"])] = rewards
        return verdicts

    def fail(self, label: str, failures: list[str]) -> None:
        self.failed_ops += 1
        self.failures += [f"{label}: {f}" for f in failures]


def repeat(batch, budget_s: float) -> list:
    """Call ``batch`` until the next call would likely overrun ``budget_s``."""
    results, walls = [], []
    start = perf_counter()
    while (len(walls) < MIN_BATCHES
           or perf_counter() - start + statistics.median(walls) <= budget_s):
        t = perf_counter()
        results.append(batch())
        walls.append(perf_counter() - t)
    return results


def run(workload: Workload, seed: int, seconds: float, trace: bool,
        setup_repeats: int = SETUP_REPEATS) -> dict:
    """Run one workload and return the full result record."""
    load_start = os.getloadavg()
    OUT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=OUT))
    try:
        bench = Run(workload, seed, work)
        setup_times, startup_times = bench.setup(setup_repeats)
        tracer = Tracer()
        bench.reference(tracer)
        # Warm-up: page cache and __pycache__.  Untimed, so it also measures RSS.
        bench.cli_batch(rss=True)
        traced: list[dict[str, float]] = []

        def cli_and_traced_batch() -> list[float]:
            # Pairing each CLI batch with a traced one lets both see the
            # same machine state, so their difference is the CLI overhead.
            walls = bench.cli_batch()
            tracer.batch = len(traced) + 1
            ref = run_batch(workload, bench.texts, bench.shapes, seed, tracer)
            if json.loads(json.dumps(ref.payloads)) != bench.expected:
                bench.fail("in-process", ["repeat: answers changed between batches"])
            for _ in workload.commands:
                bench.ref_time()
            traced.append(tracer.self_times(tracer.batch))
            return walls

        batches = repeat(cli_and_traced_batch if trace else bench.cli_batch, seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    metrics: dict[str, dict] = {}

    def put(name: str, unit: str, values) -> None:
        metrics[name] = {**summary(values), "unit": unit}

    # Every time is brought to a fixed machine speed (see calibrate.py).
    scale = bench.scale
    put("raw.wall_s", "s", [sum(b) for b in batches])
    put("raw.setup_s", "s", setup_times)
    put("raw.ref_s", "s", bench.ref_times)
    batches = [[t * scale for t in b] for b in batches]
    traced = [{k: v * scale for k, v in t.items()} for t in traced]
    # A timing is a sum of per-command medians over batches: a short slow
    # spell of the machine then moves one sample instead of a whole batch.
    per_command = [statistics.median(column) for column in zip(*batches)]
    kinds = [cmd.kind for cmd in workload.commands]
    metrics["wall_s"] = {**summary([sum(b) for b in batches]), "value": sum(per_command),
                         "unit": "s"}
    for kind in dict.fromkeys(kinds):
        metrics[kind.replace("-", "_") + "_s"] = {
            "value": sum(t for t, k in zip(per_command, kinds) if k == kind),
            "n": len(batches), "unit": "s"}
    put("setup_s", "s", [t * scale for t in setup_times])
    put("peak_rss_mib", "MiB", [bench.peak_rss_kib / 1024])
    if trace:
        lib = [{k: v for k, v in t.items() if not k.startswith("cli.")} for t in traced]
        put("cli.startup_s", "s", [t * scale for t in startup_times])
        names = list(lib[0])
        for name in names:
            put(name + "_s", "s", [t.get(name, 0.0) for t in lib])
        metrics["lib.self_s"] = {"value": sum(metrics[n + "_s"]["value"] for n in names),
                                 "n": len(lib), "unit": "s"}
        put("cli.overhead_s", "s", [sum(walls) - sum(t.values())
                                    for walls, t in zip(batches, lib)])
        layers = {name.split(".")[0] for name in names}
        counts = {name: value for name, value in bench.ref.counts.items()
                  if name.split(".")[0] in layers}
        counts["lib.calls"] = sum(1 for s in tracer.spans
                                  if s["batch"] == 0 and not s["name"].startswith("cli."))
        counts["out.max_den_digits"] = _printed_den_digits(bench.expected)
        for name, value in counts.items():
            metrics[name] = {"value": value, "n": 1, "unit": "count"}
    attempted = max(bench.attempted, 1)
    metrics["failed_frac"] = {"value": bench.failed_ops / attempted, "n": attempted,
                              "unit": "ratio"}

    inputs = {name: dict(facts) for name, facts in bench.shapes.items()}
    for name, digits in bench.ref.digits.items():
        inputs[name]["max_payout_den_digits"] = digits
    if not workload.catalogs:
        inputs["generator"] = {"max_artists": 6, "max_users": 6,
                               "seeds": [c.cli_seed(seed) for c in workload.commands],
                               "budget": workload.commands[0].budget,
                               "instances": bench.ref.counts["axioms.instances"]}
    record = {
        "workload": workload.name,
        "seed": seed,
        "trace": int(trace),
        "seconds": seconds,
        "load_model": "closed loop, one client, one CLI command at a time",
        "environment": {
            "python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "nproc": os.cpu_count(),
            "loadavg_start": load_start,
            "loadavg_end": os.getloadavg(),
        },
        "batches": len(batches),
        "traced_batches": len(traced),
        "scale": scale,
        "command_seconds": {" ".join(c.args(seed)): list(column)
                            for c, column in zip(workload.commands, zip(*batches))},
        "inputs": inputs,
        "verdicts": {f"{c}/{m}": v for (c, m), v in bench.ref.verdicts.items()},
        "metrics": metrics,
        "attempted": bench.attempted,
        "failed": bench.failed_ops,
        "failures": bench.failures,
    }
    if trace:
        tracer.write(OUT / f"{workload.name}-seed{seed}.spans.json")
    return record


def _printed_den_digits(payload) -> int:
    """Digits of the largest denominator among the 'p/q' strings in a payload."""
    if isinstance(payload, dict):
        return max(map(_printed_den_digits, payload.values()), default=0)
    if isinstance(payload, list):
        return max(map(_printed_den_digits, payload), default=0)
    if isinstance(payload, str) and "/" in payload:
        num, _, den = payload.partition("/")
        if num.lstrip("-").isdigit() and den.isdigit():
            return len(den)
    return 0


def report(record: dict) -> list[str]:
    env = record["environment"]
    lines = [
        f"# workload {record['workload']}  seed {record['seed']}  trace {record['trace']}  "
        f"python {env['python']}  nproc {env['nproc']}  "
        f"load {env['loadavg_start'][0]:.2f} -> {env['loadavg_end'][0]:.2f}  "
        f"batches {record['batches']}  traced batches {record['traced_batches']}",
    ]
    for name, facts in record["inputs"].items():
        lines.append(f"# input {name}: " + "  ".join(f"{k} {v}" for k, v in facts.items()))
    for key, in_core in record["verdicts"].items():
        lines.append(f"# verdict {key}: {'in core' if in_core else 'not in core'}")
    for name, m in record["metrics"].items():
        tail = "".join(f"  {k} {v:.6g}" for k, v in m.items() if k.startswith("p"))
        lines.append(f"{name} = {m['value']:.6g} {m['unit']}  (n={m['n']}{tail})")
    lines.append(f"# {record['failed']} of {record['attempted']} operations failed")
    lines += [f"# FAIL {f}" for f in record["failures"][:20]]
    return lines


def result_line(record: dict) -> dict:
    """The last output line: the contract metrics of the run's mode."""
    wanted = PER_LAYER if record["trace"] else END_TO_END
    return {
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {name: {"value": record["metrics"][name]["value"], "unit": unit}
                    for name, unit in wanted.items()},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Exit through Python on SIGTERM so that a running CLI child is killed too.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))

    record = run(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=2) + "\n")
    for line in report(record):
        print(line)
    print(f"# result written to {path.relative_to(ROOT)}")
    print(json.dumps(result_line(record)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
