"""Benchmark for the hazardex pipeline.

Usage (from the repository root):

    python3 perfbench/run.py --workload lexicon_full --seed 1 --seconds 20 --trace 0

Inputs come from a seeded generator (perfbench/gen.py). Each workload runs the
real `hazardex` CLI, one subprocess per command, against in-process stubs of
the literature-search and completion services: a cold pass on a fresh work
directory, then rounds for --seconds. Each round runs the same command
sequence again over a copy of what the cold pass left (a rerun sample) and
replays commands from scratch on another copy. An oracle that never imports
hazardex checks the hazard reports and accuracy cells after the cold pass and
after every round (perfbench/oracle.py).

--trace 0 prints the end-to-end metrics: each stage's wall time, the whole
cold sequence, the rerun, the peak RSS and the artifact size of the commands,
plus the start-up time every command pays. --trace 1 runs
the cold pass once more through the CLI, recording the time spent inside
stage functions, then runs the stages in this process with spans around the
public functions of each module (perfbench/spans.py) and prints the
per-layer metrics and the tracing overhead of each stage.

Only this process and its children are measured: wall time with
time.perf_counter, memory with os.wait4's rusage. The last line of standard
output is one JSON object: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import logging
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import gen  # noqa: E402
import oracle  # noqa: E402
import spans  # noqa: E402
from stubs import CompletionStub, SearchStub  # noqa: E402

WORKLOADS = tuple(gen.SPECS)
COMMAND_TIMEOUT_S = 150.0
MIN_ROUNDS = 3
TURNS = 2  # replay turns per round
STAGE_OF = {"build-lexicon": "build_lexicon"}


def _threads() -> int:
    try:
        return max(1, len(os.sched_getaffinity(0)))
    except AttributeError:
        return max(1, os.cpu_count() or 1)


# ---------------------------------------------------------------- commands


def command_sequence(spec: gen.Spec) -> list[list[str]]:
    """The CLI commands one pass runs, in order."""
    food = spec.food
    seq = [["fetch"], ["build-lexicon"], ["filter", "--food", food]]
    seq += [["extract", "--food", food, "--style", s] for s in spec.styles]
    seq += [["link", "--food", food, "--style", s] for s in spec.styles]
    seq += [["report", "--food", food]]
    seq += [["evaluate", "--style", s] for s in spec.styles]
    return seq


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("HAZARDEX_") and k.lower() not in ("http_proxy", "https_proxy", "all_proxy")}
    env["PYTHONPATH"] = str(ROOT / "src")
    env["NO_PROXY"] = env["no_proxy"] = "127.0.0.1,localhost"
    return env


def run_process(argv: list[str], cwd: Path, log_path: Path, env: dict) -> dict:
    """Run one child to completion; wall time from spawn to reap, own rusage."""
    with log_path.open("ab") as log:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, stdout=log, stderr=log, env=env)
        watchdog = threading.Timer(COMMAND_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"wall": wall, "rc": proc.returncode, "rss_mb": usage.ru_maxrss * 1024 / 1e6}


class Workspace:
    """Generated inputs, stubs and a work directory for one benchmark run."""

    def __init__(self, workload: str, seed: int):
        self.spec = gen.SPECS[workload]
        self.name = f"{workload}-{seed}"
        self.root = ROOT / ".perfbench_work" / f"{self.name}-{os.getpid()}"
        shutil.rmtree(self.root, ignore_errors=True)
        self.inputs = gen.generate(workload, seed)
        threads = _threads()
        self.search = SearchStub(self.inputs.provider_records, threads)
        self.completions = None
        self.concurrency = 1
        if self.spec.backend == "http":
            (style,) = self.spec.styles
            self.completions = CompletionStub(
                {a.number: a.responses[style] for a in self.inputs.abstracts},
                self.inputs.latency_s, self.inputs.refused, threads)
            self.concurrency = threads
        endpoints = {
            "search": self.search.url,
            "completions": self.completions.url if self.completions else "",
            "concurrency": self.concurrency,
        }
        self.config = gen.write_inputs(self.inputs, self.root, endpoints)
        self.workdir = self.root / "work"
        self.rerun_dir = self.root / "rerun"
        self.logs = self.root / "logs"
        self.logs.mkdir()
        self.env = child_env()
        self.commands = command_sequence(self.spec)
        self.refused_numbers = set(self.inputs.refused)
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def close(self) -> None:
        self.search.close()
        if self.completions:
            self.completions.close()
        shutil.rmtree(self.root, ignore_errors=True)

    def fresh(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)
        if self.completions:
            self.completions.reset()

    def expect(self, ok: bool, problem: str) -> None:
        """Count one operation; record it as failed when its outcome is not the expected one."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(problem)

    def expected_rc(self, argv: list[str], cold: bool) -> int:
        return 1 if cold and argv[0] == "extract" and self.refused_numbers else 0

    def run_cli(self, argv: list[str], cold: bool, workdir: Path | None = None,
                stage_file: Path | None = None) -> dict:
        """One CLI command as a subprocess; with stage_file, also its in-process stage time."""
        if stage_file is not None:
            head = [sys.executable, str(HERE / "timed_cli.py")]
            env = dict(self.env, PERFBENCH_STAGE_TIMES=str(stage_file))
        else:
            head = [sys.executable, "-m", "hazardex.cli"]
            env = self.env
        where = ["--workdir", str(workdir)] if workdir is not None else []
        result = run_process([*head, "--config", str(self.config), *where, *argv],
                             self.root, self.logs / "cli.log", env)
        result["stage"] = STAGE_OF.get(argv[0], argv[0])
        want = self.expected_rc(argv, cold)
        self.expect(result["rc"] == want, f"`hazardex {' '.join(argv)}` exited {result['rc']}, expected {want}")
        if stage_file is not None:
            result["stage_s"] = sum(json.loads(stage_file.read_text()).values())
        return result

    def cli_pass(self, cold: bool, timed: bool = False) -> list[dict]:
        return [
            self.run_cli(argv, cold, stage_file=self.logs / f"stages-{i}.json" if timed else None)
            for i, argv in enumerate(self.commands)
        ]

    def replay(self, i: int, workdir: Path) -> dict:
        """Run command i again on a copy of the cold pass's work directory.

        Every manifest is dropped first, and so are the fetch cursor and the
        response store the command would otherwise resume from, so the command
        redoes all of its work and rewrites the same outputs.
        """
        argv = self.commands[i]
        for manifest in workdir.rglob("*.manifest.json"):
            manifest.unlink()
        (workdir / "abstracts" / "fetch_state.json").unlink(missing_ok=True)
        if argv[0] == "extract":
            food, style = argv[2], argv[4]
            (workdir / "responses" / f"{food}__{style}.jsonl").unlink(missing_ok=True)
        result = self.run_cli(argv, cold=True, workdir=workdir)
        if argv[0] == "extract":
            requested, _ = self.completions_requested({}, self.manifests(workdir))
            self.attempted += requested
        return result

    def rerun_sample(self) -> list[dict]:
        """The whole sequence again over a fresh copy of what the cold pass left.

        The copy is what the first rerun after a cold pass sees: on an
        up-to-date work directory every command is a freshness check, and
        after refusals `extract` resumes. The refusals were given in the cold
        pass, so the stub answers every prompt now.
        """
        shutil.rmtree(self.rerun_dir, ignore_errors=True)
        shutil.copytree(self.workdir, self.rerun_dir)
        if self.completions:
            self.completions.reset(armed=False)
        before = self.manifests(self.rerun_dir)
        results = [self.run_cli(argv, cold=False, workdir=self.rerun_dir) for argv in self.commands]
        asked, failed = self.completions_requested(before, self.manifests(self.rerun_dir))
        self.attempted += asked
        self.expect(failed == 0, f"{failed} completions failed on a rerun")
        return results

    def manifests(self, workdir: Path) -> dict[str, dict]:
        area = workdir / "responses"
        return {p.name: json.loads(p.read_text("utf-8")) for p in sorted(area.glob("extract__*.manifest.json"))}

    def completions_requested(self, before: dict, after: dict) -> tuple[int, int]:
        requested = failed = 0
        for name, manifest in after.items():
            if before.get(name) != manifest:
                counts = manifest["counts"]
                requested += counts["new"] + counts["failed"]
                failed += counts["failed"]
        return requested, failed

    def check_reports(self, workdir: Path, answered_all: bool) -> None:
        answered = None
        if not answered_all and self.refused_numbers:
            answered = {a.number for a in self.inputs.abstracts} - self.refused_numbers
        problems = oracle.check(workdir / "reports", gen.truth(self.inputs, answered))
        self.expect(not problems, "; ".join(problems[:5]))

    def backend_wait_share(self, passed: list[dict]) -> float:
        """The stub's waits since its last reset, divided by the concurrency,
        as a share of the wall time of the extract commands in `passed`."""
        extract = sum(r["wall"] for r in passed if r["stage"] == "extract")
        if not self.completions or not extract:
            return 0.0
        return self.completions.slept / self.concurrency / extract

    @staticmethod
    def report_digest(workdir: Path) -> str:
        digest = hashlib.sha256()
        for path in sorted((workdir / "reports").iterdir()):
            if path.suffix in (".csv", ".json") and not path.name.endswith(".manifest.json"):
                digest.update(path.name.encode() + b"\0" + path.read_bytes())
        return digest.hexdigest()


# ---------------------------------------------------------------- end to end


def setup_probe(ws: Workspace) -> float:
    """Fresh interpreter: import the CLI and load the workload's config."""
    code = "import sys; from hazardex.cli import main; from hazardex.config import load_config; load_config(sys.argv[1])"
    result = run_process([sys.executable, "-c", code, str(ws.config)], ws.root, ws.logs / "setup.log", ws.env)
    ws.expect(result["rc"] == 0, f"set-up probe exited {result['rc']}")
    return result["wall"]


def end_to_end(ws: Workspace, seconds: float) -> dict:
    """Cold pass, then measuring rounds for `seconds` (MIN_ROUNDS at least).

    A round takes a rerun sample, then replays commands in TURNS turns, and
    ends with a set-up probe. A turn replays one command of every light
    stage, the next of that stage's commands, so a stage of one command is
    replayed every turn and a stage of one command per style cycles through
    its styles. The first turn of a round also replays the next command of
    the slow stage, whose commands are too long to replay more often. The
    heavy stage's commands run once, in the cold pass: replaying them would
    double the run. Light stages are all the others.

    A command's stage time is the median of its cold run and its replays;
    its rerun time is the median of its rerun samples. So each median rests
    on samples spread over the whole run, not on one moment of it.
    """
    setup = [setup_probe(ws)]
    ws.fresh()
    cold = ws.cli_pass(cold=True)
    wait_share = ws.backend_wait_share(cold)
    after_cold = ws.manifests(ws.workdir)
    requested, refused = ws.completions_requested({}, after_cold)
    ws.attempted += requested
    ws.expect(refused == len(ws.refused_numbers),
              f"{refused} completions failed in the cold pass, {len(ws.refused_numbers)} refusals were injected")
    ws.check_reports(ws.workdir, answered_all=False)
    digest = ws.report_digest(ws.workdir)
    artifact = sum(p.stat().st_size for p in ws.workdir.rglob("*") if p.is_file()) / 1e6
    surfaces = json.loads((ws.workdir / "lexicon" / "build_report.json").read_text("utf-8"))["surface_count"]
    replay_dir = ws.root / "replay"
    shutil.copytree(ws.workdir, replay_dir)
    setup.append(setup_probe(ws))

    samples = [[r["wall"]] for r in cold]
    rerun_samples: list[list[float]] = [[] for _ in cold]
    processes = list(cold)
    stages = [r["stage"] for r in cold]
    slow = [i for i, s in enumerate(stages) if s == ws.spec.slow_stage]
    light: dict[str, list[int]] = {}
    for i, s in enumerate(stages):
        if s not in (ws.spec.heavy_stage, ws.spec.slow_stage):
            light.setdefault(s, []).append(i)

    rerun_digest = None
    rounds = 0
    round_s = 0.0
    start = time.perf_counter()
    while rounds < MIN_ROUNDS or time.perf_counter() - start + round_s < seconds:
        round_start = time.perf_counter()
        for i, result in enumerate(ws.rerun_sample()):
            rerun_samples[i].append(result["wall"])
            processes.append(result)
        rerun_now = ws.report_digest(ws.rerun_dir)
        if rerun_digest is None:
            if ws.refused_numbers:
                ws.check_reports(ws.rerun_dir, answered_all=True)
            else:
                ws.expect(rerun_now == digest, "the rerun changed the report bytes")
            rerun_digest = rerun_now
        else:
            ws.expect(rerun_now == rerun_digest, "rerun samples wrote different report bytes")
        for turn in range(TURNS):
            picked = [commands[(rounds * TURNS + turn) % len(commands)] for commands in light.values()]
            if turn == 0 and slow:
                picked.append(slow[rounds % len(slow)])
            for i in picked:
                result = ws.replay(i, replay_dir)
                samples[i].append(result["wall"])
                processes.append(result)
        ws.check_reports(replay_dir, answered_all=False)
        ws.expect(ws.report_digest(replay_dir) == digest, "replayed commands changed the report bytes")
        setup.append(setup_probe(ws))
        round_s = time.perf_counter() - round_start
        rounds += 1

    walls = [statistics.median(s) for s in samples]
    metrics = {"setup_s": (statistics.median(setup), "s"), "total_s": (sum(walls), "s")}
    for stage in spans.STAGES:
        metrics[f"{stage}_s"] = (sum(w for w, s in zip(walls, stages) if s == stage), "s")
    metrics["rerun_s"] = (sum(statistics.median(s) for s in rerun_samples), "s")
    metrics["peak_rss_mb"] = (max(r["rss_mb"] for r in processes), "MB")
    metrics["artifact_mb"] = (artifact, "MB")
    counts = {stage: sorted({len(samples[i]) for i, s in enumerate(stages) if s == stage}) for stage in spans.STAGES}
    print(f"commands per pass: {len(cold)}; rounds: {rounds}; samples per command: "
          + ", ".join(f"{stage} {'-'.join(map(str, n))}" for stage, n in counts.items())
          + f", rerun {rounds}; set-up probes: {len(setup)}")
    print(f"surfaces: {surfaces}; completions requested in the cold pass: {requested}")
    if ws.completions:
        print(f"backend wait: stub sleep / concurrency {ws.concurrency} is {wait_share:.3f} "
              f"of the cold extract's wall time")
    print(f"failure_ratio: {(ws.failed + refused) / ws.attempted:.6f} "
          f"({refused} injected refusals, {ws.failed} unexpected failures, {ws.attempted} operations)")
    return metrics


# ---------------------------------------------------------------- traced run


def in_process_pass(ws: Workspace, cfg, style_of) -> None:
    from hazardex import pipeline

    for argv in ws.commands:
        cmd, args = argv[0], dict(zip(argv[1::2], argv[2::2]))
        food = args.get("--food")
        style = style_of(args["--style"]) if "--style" in args else None
        if cmd == "fetch":
            pipeline.stage_fetch(cfg)
        elif cmd == "build-lexicon":
            pipeline.stage_build_lexicon(cfg)
        elif cmd == "filter":
            pipeline.stage_filter(cfg, food)
        elif cmd == "extract":
            pipeline.stage_extract(cfg, food, style)
        elif cmd == "link":
            pipeline.stage_link(cfg, food, style)
        elif cmd == "report":
            pipeline.stage_report(cfg, food)
        elif cmd == "evaluate":
            pipeline.stage_evaluate(cfg, cfg.gold_path, style)


def lookup_ns(index, probes: list[str], calls: int = 300_000) -> float:
    lookup = index.lookup
    rounds = max(1, calls // len(probes))
    start = time.perf_counter()
    for _ in range(rounds):
        for probe in probes:
            lookup(probe)
    return (time.perf_counter() - start) / (rounds * len(probes)) * 1e9


def traced(ws: Workspace) -> dict:
    sys.path.insert(0, str(ROOT / "src"))
    os.environ.update(NO_PROXY="127.0.0.1,localhost", no_proxy="127.0.0.1,localhost")
    from hazardex.config import load_config
    from hazardex.prompting import PromptStyle

    ws.fresh()
    cli_cold = ws.cli_pass(cold=True, timed=True)
    wait_share = ws.backend_wait_share(cli_cold)
    ws.check_reports(ws.workdir, answered_all=False)

    handler = logging.FileHandler(ws.logs / "in_process.log")
    logging.basicConfig(level=logging.INFO, handlers=[handler], force=True)
    environ = {k: v for k, v in os.environ.items() if not k.startswith("HAZARDEX_")}
    load_ms = []
    for _ in range(20):
        start = time.perf_counter()
        cfg = load_config(ws.config, environ=environ)
        load_ms.append((time.perf_counter() - start) * 1e3)

    tracer = spans.Tracer()
    try:
        ws.fresh()
        tracer.install()
        in_process_pass(ws, cfg, PromptStyle)
        boundary = len(tracer.spans)
        in_process_pass(ws, cfg, PromptStyle)
    finally:
        tracer.uninstall()
        logging.shutdown()
    ws.check_reports(ws.workdir, answered_all=True)
    tracer.write(ws.root.parent / f"spans-{ws.name}.jsonl")
    cold = spans.SpanSet(tracer.spans[:boundary], tracer.facts)
    second = spans.SpanSet(tracer.spans[boundary:], tracer.facts)
    metrics = spans.layer_metrics(cold, second)
    metrics["lexicon.index_mb"] = ((ws.workdir / "lexicon" / "index.jsonl").stat().st_size / 1e6, "MB")

    # Loaded again outside the traced passes: keeping the index a link call
    # loaded alive would have doubled the live heap of the next one.
    from hazardex.lexicon import LexiconIndex

    index = LexiconIndex.load(ws.workdir / "lexicon" / "index.jsonl")
    hits, misses = [], []
    for _, name, abbr, variants, plural in gen.hazard_table():
        hits += [name, name.upper(), *variants, *([plural] if plural else [])]
        misses += [abbr] if abbr else []
    misses += list(gen.UNKNOWN_NAMES)
    metrics["lexicon.lookup_hit_ns"] = (lookup_ns(index, hits), "ns")
    metrics["lexicon.lookup_miss_ns"] = (lookup_ns(index, misses), "ns")
    del index

    metrics["config.load_config_ms"] = (statistics.median(load_ms), "ms")
    metrics["cli.commands"] = (float(len(cli_cold)), "count")
    metrics["cli.overhead_s"] = (sum(r["wall"] - r["stage_s"] for r in cli_cold), "s")
    metrics["prompting.backend_wait_share"] = (wait_share, "ratio")
    overhead_total = 0.0
    for stage in spans.STAGES:
        untraced = sum(r["stage_s"] for r in cli_cold if r["stage"] == stage)
        diff = cold.total(f"pipeline.stage_{stage}") - untraced
        overhead_total += diff
        metrics[f"trace.overhead_{stage}_s"] = (diff, "s")
    metrics["trace.overhead_s"] = (overhead_total, "s")
    print(f"spans recorded: {len(tracer.spans)} ({boundary} in the cold pass)")
    return metrics


# ---------------------------------------------------------------- main


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "hazardex" / "cli.py").is_file():
        print(f"error: no hazardex sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    ws = Workspace(args.workload, args.seed)
    try:
        sizes = ws.inputs.sizes()
        print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
        print("inputs: " + " ".join(f"{k}={v}" for k, v in sizes.items()))
        metrics = traced(ws) if args.trace else end_to_end(ws, args.seconds)
    finally:
        ws.close()
    for name, (value, unit) in metrics.items():
        print(f"  {name:<44} {value:>14.6f} {unit}")
    for problem in ws.problems:
        print(f"FAILED: {problem}")
    result = {
        "correct": ws.failed == 0,
        "attempted": ws.attempted,
        "failed": ws.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
