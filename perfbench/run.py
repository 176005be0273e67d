"""End-to-end and per-layer benchmark of the ``snsgraph`` CLI.

Run from the root of a source checkout::

    python3 perfbench/run.py --workload desk-report --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10

One run of a workload:

1. generates the workload's inputs from ``--seed`` (excluded from every
   metric);
2. runs the workload's CLI command(s) from ``src/``, one process at a time,
   again and again until ``--seconds`` have passed (at least once), and
   checks every run's outputs: report/CSV invariants against counts worked
   out independently from the corpus, finite layout coordinates, a GEXF
   re-import of the first passing run, and byte-identical artifacts
   between that run and every other run with one seed;
3. before the first repetition and after each one, times
   ``perfbench/hostref.py``, a fixed job that gauges the host's current
   speed, and a few fresh interpreters through ``import snsgraph.cli``
   (``setup_s``, the start-up every CLI process pays). End-to-end times are
   medians, scaled to the host's nominal speed (see ``_run_workload``);
4. with ``--trace 1``, runs each CLI process once more through
   ``perfbench/traced.py``, which calls the CLI with the public function
   of every layer wrapped in a span, and times the host reference before
   and after, so that per-layer times are scaled to the same nominal
   speed. The traced run must write the same artifacts as the timed runs.

The last line of standard output is one JSON object: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``, as
listed in ``BENCHMARK.json``. Every metric is also printed above it with
its unit and sample count. Runs are a closed loop: one client, one
command at a time.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import math
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
import uuid
from dataclasses import dataclass, field
from pathlib import Path

import corpus

HERE = Path(__file__).resolve().parent
TOPIC = "ge2017"
TOP_ACCOUNTS, TOP_TERMS = 13, 10
SETUP_SAMPLES = 3  # per host-reference sample
HOST_REF_NOMINAL_S = 0.5  # perfbench/hostref.py on an undisturbed 2-core Xeon host
RUN_DEADLINE_S = 170
WORK_DIR = ".perfbench_work"
LAYERS = ("ingest", "model", "community", "centrality", "textmine",
          "layout", "collector", "report")
CHAIN = ("collect", "ingest", "communities", "centrality", "text", "layout")
CLI = "import sys; from snsgraph.cli import main; sys.exit(main())"
GEXF_COUNTS = ("import sys; from snsgraph.report import import_gexf; "
               "g = import_gexf(sys.argv[1]); print(g.node_count, g.edge_count)")


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "report": one `snsgraph report`; "chain": the six subcommands
    records: int  # corpus lines given to the program
    accounts: int
    iterations: int  # layout iterations
    why: str


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "desk-report", "report", 10_000, 1_400, 150,
            "n > 1000 engages Barnes-Hut and layout dominates: layout-kernel "
            "work shows here, graph-core work barely does",
        ),
        Workload(
            "crawl-chain", "chain", 10_000, 1_000, 30,
            "six processes hand off through files: GEXF reads, collector dedup "
            "and emit, six start-ups, exact repulsion at n <= 1000",
        ),
        Workload(
            "large-report", "report", 50_000, 5_000, 5,
            "few layout iterations, so parse, graph build, views, Louvain and "
            "GEXF export dominate time and memory",
        ),
    )
}


# --- inputs and the independent expectations ---------------------------------

@dataclass
class Inputs:
    corpus: Path
    positive: Path
    negative: Path
    lines: int
    unique: int


def make_inputs(w: Workload, seed: int, work: Path) -> Inputs:
    path = work / "corpus.jsonl"
    if w.kind == "report":
        lines = unique = corpus.synthetic_corpus(path, w.records, w.accounts, seed)
    else:
        lines, unique = corpus.crawl_corpus(path, w.records, w.accounts, seed)
    pos, neg = work / "positive-words.txt", work / "negative-words.txt"
    corpus.lexicons(pos, neg, seed)
    return Inputs(path, pos, neg, lines, unique)


def expected_counts(path: Path) -> dict:
    """Records kept, n and m, from the corpus by plain set arithmetic
    (first delivery of an id wins, as the collector's dedup does)."""
    seen, kept, edges, nodes = set(), 0, set(), set()
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            row = json.loads(line)
            if row["id"] in seen:
                continue
            seen.add(row["id"])
            if TOPIC not in {t.lower() for t in row["hashtags"]}:
                continue
            kept += 1
            src = row["author"]
            acts = [(m, "mention") for m in row["mentions"]]
            acts += [(f, "follow") for f in row["follows"]]
            if row["in_reply_to"]:
                acts.append((row["in_reply_to"], "reply"))
            for dst, kind in acts:
                if dst != src:
                    edges.add(f"{src} {dst} {kind}")
                    nodes.update((src, dst))
    return {"records": kept, "n": len(nodes), "m": len(edges)}


# --- commands ----------------------------------------------------------------

def commands(w: Workload, inputs: Inputs, seed: int, out: Path) -> list[list[str]]:
    """The workload's CLI invocations writing into ``out`` (created here)."""
    out.mkdir(parents=True)
    lexicon = ["--lexicon-pos", str(inputs.positive), "--lexicon-neg", str(inputs.negative)]
    common = ["--seed", str(seed)]
    if w.kind == "report":
        return [["report", "--input", str(inputs.corpus), "--topic", TOPIC, *common,
                 "--iterations", str(w.iterations), *lexicon, "--out", str(out)]]
    config, sink, gexf = out / "collector.json", str(out / "sink.jsonl"), str(out / "graph.gexf")
    corpus.collector_config(config, inputs.corpus, sink, out / "alerts.jsonl",
                            inputs.positive, inputs.negative)
    return [
        ["collect", "--config", str(config), "--once"],
        ["ingest", "--input", sink, "--topic", TOPIC, "--out", str(out)],
        ["communities", "--input", gexf, *common, "--out", str(out)],
        ["centrality", "--input", gexf, "--out", str(out)],
        ["text", "--input", sink, "--topic", TOPIC, *lexicon, "--out", str(out)],
        ["layout", "--input", gexf, "--iterations", str(w.iterations), *common,
         "--out", str(out)],
    ]


def artifact_names(w: Workload) -> list[str]:
    """Artifacts whose bytes must repeat for one seed. The collector sink is
    left out: its ``fetched_at`` is wall-clock time."""
    tables = ["communities.csv", "centrality.csv", "terms.csv", "layout.csv", "graph.gexf"]
    if w.kind == "report":
        return ["report.json", *tables]
    return ["ingest_stats.json", "alerts.jsonl", "sentiment.json", *tables]


@dataclass
class Child:
    wall: float
    rss_mb: float
    code: int


def spawn(argv: list[str], env: dict, log: Path) -> Child:
    """Run one process to its end; its own rusage gives its peak RSS.

    A spawned process's ``ru_maxrss`` starts from its parent's peak RSS, so
    the harness keeps its own memory below that of any program process: it
    imports neither numpy nor snsgraph and reads large files in blocks.
    """
    with open(log, "wb") as fh:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, env=env, stdout=fh, stderr=subprocess.STDOUT)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(wall, usage.ru_maxrss / 1024.0, proc.returncode)


# --- output checks -----------------------------------------------------------

def csv_rows(path: Path) -> list[list[str]]:
    with open(path, encoding="utf-8") as fh:
        return [line.rstrip("\n").split(",") for line in fh][1:]


def log_fields(path: Path) -> dict:
    """``key=value`` pairs of a subcommand's summary line."""
    text = path.read_text(encoding="utf-8", errors="replace")
    return dict(word.split("=", 1) for word in text.split() if "=" in word)


def check_outputs(w: Workload, out: Path, inputs: Inputs, expect: dict) -> list[str]:
    errors = []

    def want(label, got, wanted):
        if got != wanted:
            errors.append(f"{label}: got {got!r}, expected {wanted!r}")

    n, m = expect["n"], expect["m"]
    if w.kind == "report":
        report = json.loads((out / "report.json").read_text(encoding="utf-8"))
        want("report records", report["corpus"]["records"], expect["records"])
        want("report n", report["corpus"]["n"], n)
        want("report m", report["corpus"]["m"], m)
        q, communities = (report["community"][k] for k in ("modularity_q", "community_count"))
        want("report top accounts", len(report["top_accounts"]), TOP_ACCOUNTS)
    else:
        summary = log_fields(out / "collect.log")
        want("collected", [summary.get("records"), summary.get("duplicates")],
             [str(inputs.unique), str(inputs.lines - inputs.unique)])
        with open(out / "sink.jsonl", encoding="utf-8") as fh:
            want("sink lines", sum(1 for _ in fh), inputs.unique)
        stats = json.loads((out / "ingest_stats.json").read_text(encoding="utf-8"))
        want("ingest", [stats["records"], stats["n"], stats["m"]], [expect["records"], n, m])
        sentiment = json.loads((out / "sentiment.json").read_text(encoding="utf-8"))
        want("sentiment records", sentiment["records"], expect["records"])
        fields = log_fields(out / "communities.log")
        q, communities = float(fields["Q"]), int(fields["communities"])
    if not -1.0 <= q <= 1.0:
        errors.append(f"modularity Q {q} outside [-1, 1]")
    if communities < 2:
        errors.append(f"community count {communities} < 2")
    want("communities.csv rows", len(csv_rows(out / "communities.csv")), n)
    want("centrality.csv rows", len(csv_rows(out / "centrality.csv")), TOP_ACCOUNTS)
    want("terms.csv rows", len(csv_rows(out / "terms.csv")), TOP_TERMS)
    coords = csv_rows(out / "layout.csv")
    want("layout.csv rows", len(coords), n)
    if not all(math.isfinite(float(v)) for row in coords for v in row[1:]):
        errors.append("layout.csv holds a non-finite coordinate")
    return errors


def check_gexf(path: Path, expect: dict, env: dict) -> list[str]:
    """Re-import the GEXF with the program's reader, in a child process so
    the harness's own memory stays small (see ``spawn``)."""
    log = path.with_suffix(".import.log")
    child = spawn([sys.executable, "-c", GEXF_COUNTS, str(path)], env, log)
    got = log.read_text(encoding="utf-8", errors="replace").split()
    wanted = [str(expect["n"]), str(expect["m"])]
    if child.code != 0 or got != wanted:
        return [f"GEXF re-import n/m {got}, expected {wanted}"]
    return []


def hashes(w: Workload, out: Path) -> dict:
    digests = {}
    for name in artifact_names(w):
        digest = hashlib.sha256()
        with open(out / name, "rb") as fh:
            for block in iter(lambda: fh.read(1 << 20), b""):
                digest.update(block)
        digests[name] = digest.hexdigest()
    return digests


def source_fingerprint(root: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()[:16]


def check_replay_record(root: Path, key: str, got: dict) -> list[str]:
    """Artifacts of the same source, workload and seed must repeat across runs."""
    record_path = root / WORK_DIR / "artifacts.json"
    record = json.loads(record_path.read_text()) if record_path.exists() else {}
    known = record.setdefault(key, got)
    record_path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    return [f"{name} differs from an earlier run with this seed"
            for name in got if known.get(name, got[name]) != got[name]]


# --- the end-to-end loop -----------------------------------------------------

@dataclass
class Timed:
    walls: list[float] = field(default_factory=list)
    rss: list[float] = field(default_factory=list)
    stage_walls: dict[str, list[float]] = field(default_factory=dict)
    setup: list[float] = field(default_factory=list)
    host_refs: list[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)
    hashes: dict = field(default_factory=dict)
    gexf_bytes: int = 0


def run_commands(cmds, env, out: Path, timed: Timed) -> list[str]:
    wall, rss = 0.0, 0.0
    for argv in cmds:
        child = spawn([sys.executable, "-c", CLI, *argv], env, out / f"{argv[0]}.log")
        wall += child.wall
        rss = max(rss, child.rss_mb)
        timed.stage_walls.setdefault(argv[0], []).append(child.wall)
        if child.code != 0:
            return [f"`snsgraph {argv[0]}` exited {child.code}"]
    timed.walls.append(wall)
    timed.rss.append(rss)
    return []


def host_ref(env: dict, work: Path) -> float:
    """Seconds the fixed reference job takes on the host right now."""
    log = work / "hostref.log"
    child = spawn([sys.executable, str(HERE / "hostref.py")], env, log)
    if child.code != 0:
        raise RuntimeError(f"hostref.py exited {child.code}; see {log}")
    return float(log.read_text(encoding="utf-8"))


def measure(w, inputs, expect, seed, seconds, env, work) -> tuple[Timed, Path | None]:
    """The workload's commands until ``seconds`` pass. Before the first
    repetition and after each one, the host reference and a few start-up
    samples are timed, so that both are spread over the run like the
    repetitions they scale. Returns the timings and the output directory of
    the first run that passed its checks, which every later run must equal
    byte for byte."""
    timed = Timed()
    probe = [sys.executable, "-c", "import snsgraph.cli"]
    spawn(probe, env, work / "warmup.log")  # fills __pycache__; not timed

    def gauge():
        timed.host_refs.append(host_ref(env, work))
        for _ in range(SETUP_SAMPLES):
            child = spawn(probe, env, work / "setup.log")
            if child.code != 0:
                raise RuntimeError("`import snsgraph.cli` failed; see setup.log")
            timed.setup.append(child.wall)

    reference = None
    gauge()
    start = time.perf_counter()
    while timed.attempted == 0 or time.perf_counter() - start < seconds:
        out = work / f"cli-{timed.attempted}"
        cmds = commands(w, inputs, seed, out)
        timed.attempted += 1
        errors = run_commands(cmds, env, out, timed)
        gauge()
        got = {}
        try:
            errors = errors or check_outputs(w, out, inputs, expect)
            if not errors and reference is None:
                errors = check_gexf(out / "graph.gexf", expect, env)
            if not errors:
                got = hashes(w, out)
        except (OSError, KeyError, IndexError, ValueError) as exc:
            errors = [f"unreadable output: {exc!r}"]
        if not errors and reference is None:
            reference, timed.hashes = out, got
            timed.gexf_bytes = (out / "graph.gexf").stat().st_size
        errors += [f"{name} differs from the first passing run" for name in got
                   if got[name] != timed.hashes[name]]
        if errors:
            timed.failed += 1
            timed.errors += [f"run {timed.attempted}: {e}" for e in errors]
        if out != reference:
            shutil.rmtree(out)
    return timed, reference


# --- the traced run ----------------------------------------------------------

def traced_run(w, inputs, seed, env, out: Path) -> tuple[list[dict], list[Child]]:
    run_id = uuid.uuid4().hex
    traces, children = [], []
    cmds = commands(w, inputs, seed, out)
    for i, argv in enumerate(cmds):
        trace_file = out / f"trace-{i}-{argv[0]}.json"
        child = spawn(
            [sys.executable, str(HERE / "traced.py"), "--run-id", run_id,
             "--trace-out", str(trace_file), "--", *argv],
            env, out / f"{argv[0]}.log",
        )
        if child.code != 0:
            log = (out / f"{argv[0]}.log").read_text(encoding="utf-8", errors="replace")
            raise RuntimeError(f"traced `{argv[0]}` exited {child.code}:\n{log}")
        trace = json.loads(trace_file.read_text(encoding="utf-8"))
        trace["command"] = argv[0]
        traces.append(trace)
        children.append(child)
    return traces, children


def cli_results(w: Workload, out: Path) -> dict:
    """n, m, Q, top accounts and top terms as the CLI wrote them."""
    if w.kind == "report":
        report = json.loads((out / "report.json").read_text(encoding="utf-8"))
        n, m, q = report["corpus"]["n"], report["corpus"]["m"], report["community"]["modularity_q"]
    else:
        stats = json.loads((out / "ingest_stats.json").read_text(encoding="utf-8"))
        n, m = stats["n"], stats["m"]
        q = float(log_fields(out / "communities.log")["Q"])
    return comparable(n, m, q, csv_rows(out / "centrality.csv"), csv_rows(out / "terms.csv"))


def traced_results(traces: list[dict]) -> dict:
    merged = {}
    for trace in traces:
        merged.update(trace["results"])
    return comparable(merged["n"], merged["m"], merged["q"],
                      merged["top_accounts"], merged["top_terms"])


def comparable(n, m, q, accounts, terms) -> dict:
    """Results in one form, whichever text form they were read from. Q is
    compared at the six decimals the `communities` subcommand prints."""
    return {
        "n": int(n), "m": int(m), "q": round(float(q), 6),
        "top_accounts": [(h, float(s)) for h, s in accounts],
        "top_terms": [(t, int(c), float(s)) for t, c, s in terms],
    }


def per_layer_metrics(traces, children, scale, timed, timed_scale, e2e) -> tuple[dict, dict]:
    """Per-layer metrics plus the shares used by the design checks. Traced
    times are scaled to nominal host speed by ``scale``, the timed runs'
    stage walls by ``timed_scale``; ``e2e`` holds the scaled end-to-end
    metrics."""
    spans, counters = [], {}
    for i, trace in enumerate(traces):
        for rec in trace["spans"]:
            spans.append(dict(rec, id=(i, rec["id"]),
                              parent=None if rec["parent"] is None else (i, rec["parent"])))
        for key, value in trace["counters"].items():
            counters.setdefault(key, value)  # first process to report wins
    by_id = {s["id"]: s for s in spans}

    def dur(s):
        return (s["end"] - s["start"]) * scale

    def total(name):
        return sum(dur(s) for s in spans if s["name"] == name)

    def self_total(name):
        return sum(s["self"] for s in spans if s["name"] == name) * scale

    def calls(name):
        return sum(1 for s in spans if s["name"] == name)

    def ancestors(s):
        while s["parent"] is not None:
            s = by_id[s["parent"]]
            yield s

    def layer(s):
        return s["name"].split(".", 1)[0]

    commands_run = {f"cli.{t['command']}" for t in traces}
    roots = [s for s in spans if s["parent"] is None and s["name"] in commands_run]
    traced_total = sum(dur(s) for s in roots)
    outermost = [s for s in spans if layer(s) in LAYERS
                 and not any(layer(a) in LAYERS for a in ancestors(s))]
    root_ids = {s["id"] for s in roots}
    in_pipeline = [s for s in spans if any(a["id"] in root_ids for a in ancestors(s))]
    layer_self = {name: sum(s["self"] for s in in_pipeline if layer(s) == name) * scale
                  for name in LAYERS}

    fetched = counters.get("collector.items_fetched", 0.0)
    emitted = counters.get("collector.records_emitted", 0.0)
    iterations = counters.get("layout.iterations", 0.0)
    repulsion = sorted(dur(s) for s in spans if s["name"] == "layout.repulsion_call")
    stage = {f"cli.stage_wall_s.{sub}":
             statistics.median(timed.stage_walls.get(sub, [0.0])) * timed_scale
             for sub in CHAIN}
    metrics = {
        **{f"ingest.{k}": counters.get(f"ingest.{k}", 0.0) for k in (
            "records_in", "parse_diagnostics", "records_kept", "interactions",
            "self_loops_dropped", "n", "m")},
        "ingest.parse_s": total("ingest.parse"),
        "ingest.filter_s": total("ingest.filter"),
        "ingest.build_graph_s": total("ingest.build_graph"),
        "model.merge_kinds_s": total("model.merge_kinds"),
        "model.merge_kinds_calls": calls("model.merge_kinds"),
        "model.undirected_view_s": total("model.undirected_view"),
        "model.undirected_view_calls": calls("model.undirected_view"),
        "community.louvain_s": total("community.louvain"),
        "community.louvain_self_s": self_total("community.louvain"),
        **{f"community.{k}": counters.get(f"community.{k}", 0.0)
           for k in ("passes", "modularity_q", "communities")},
        "centrality.power_s": total("centrality.power"),
        "centrality.iterations": counters.get("centrality.iterations", 0.0),
        "centrality.converged": counters.get("centrality.converged", 0.0),
        "textmine.term_stats_s": total("textmine.term_stats"),
        "textmine.vocabulary": counters.get("textmine.vocabulary", 0.0),
        "textmine.sentiment_s": counters.get("textmine.sentiment_s", 0.0) * scale,
        "textmine.scored_records": counters.get("textmine.scored_records", 0.0),
        "collector.poll_s": total("collector.poll"),
        "collector.emit_s": counters.get("collector.emit_s", 0.0) * scale,
        "collector.items_fetched": fetched,
        "collector.records_emitted": emitted,
        "collector.duplicates_dropped": counters.get("collector.duplicates_dropped", 0.0),
        "collector.dedup_useful_ratio": emitted / fetched if fetched else 0.0,
        "collector.bucketize_s": total("collector.bucketize"),
        "collector.detect_s": total("collector.detect"),
        "collector.buckets": counters.get("collector.buckets", 0.0),
        "collector.alerts": counters.get("collector.alerts", 0.0),
        "layout.run_s": total("layout.run"),
        "layout.run_self_s": self_total("layout.run"),
        "layout.iterations": iterations,
        "layout.s_per_iter": total("layout.run") / iterations if iterations else 0.0,
        "layout.barnes_hut": counters.get("layout.barnes_hut", 0.0),
        "layout.repulsion_call_s": statistics.median(repulsion) if repulsion else 0.0,
        "report.export_gexf_s": total("report.export_gexf"),
        "report.gexf_bytes": float(timed.gexf_bytes),
        "report.import_gexf_s": total("report.import_gexf"),
        "report.render_s": total("report.redact") + total("report.render"),
        "cli.process_count": float(len(children)),
        **stage,
        "cli.unattributed_s": sum(c.wall for c in children) * scale
        - sum(dur(s) for s in outermost),
        **{f"{name}.rss_hwm_mb": counters.get(f"{name}.rss_hwm_mb", 0.0) for name in (
            "ingest.parse", "ingest.build_graph", "community.louvain",
            "layout.run", "report.export_gexf", "report.import_gexf")},
        "bench.trace_overhead_s":
            traced_total - (e2e["wall_s"] - len(children) * e2e["setup_s"]),
    }
    shares = {"traced_total_s": traced_total, **layer_self}
    return metrics, shares


# --- one workload run --------------------------------------------------------

def environment() -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)), "cpu": cpu,
        "python": platform.python_version(), "numpy": importlib.metadata.version("numpy"),
        "loadavg_1m_at_start": os.getloadavg()[0],
    }


def child_env(root: Path) -> dict:
    """The checkout's sources, a single BLAS thread, no inherited seed."""
    env = {k: v for k, v in os.environ.items() if k not in ("PYTHONPATH", "SNSGRAPH_SEED")}
    env.update(PYTHONPATH=str(root / "src"), OMP_NUM_THREADS="1",
               OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    return env


def show(name: str, value: float, unit: str, note: str = "") -> None:
    print(f"  {name:<36} {value:>16.6f} {unit:<6} {note}".rstrip())


@dataclass
class Outcome:
    e2e: dict
    layer: dict
    attempted: int
    failed: int


def run_workload(w: Workload, seed: int, seconds: float, trace: bool, root: Path,
                 units: dict) -> Outcome:
    work = root / WORK_DIR / f"{w.name}-s{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        return _run_workload(w, seed, seconds, trace, root, work, units)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _run_workload(w, seed, seconds, trace, root, work, units) -> Outcome:
    print(f"# workload {w.name} (seed {seed}, {seconds:g} s, trace {int(trace)}): {w.why}")
    inputs = make_inputs(w, seed, work)
    expect = expected_counts(inputs.corpus)
    print(f"  input: {inputs.lines} lines ({inputs.unique} unique ids), "
          f"{expect['records']} on topic, n={expect['n']} m={expect['m']}")
    env = child_env(root)
    timed, reference = measure(w, inputs, expect, seed, seconds, env, work)
    if timed.hashes:
        key = f"{w.name}:seed={seed}:src={source_fingerprint(root)}"
        replay_errors = check_replay_record(root, key, timed.hashes)
        if replay_errors:
            timed.failed += 1
            timed.errors += replay_errors
    for line in timed.errors:
        print(f"  FAILED {line}")
    if not timed.walls:
        raise RuntimeError(f"{w.name}: no run succeeded")

    # On a shared host, other tenants slowed identical runs by up to 2x for
    # minutes at a time, and a fixed reference job, timed before the first
    # repetition and after each one, slowed with them. Every reported time
    # is therefore at the host's nominal speed: scaled by
    # HOST_REF_NOMINAL_S / (the median reference time around the work that
    # was timed). The reference job uses no repository code, so a program
    # change cannot move it.
    wall_s = statistics.median(timed.walls)
    setup_s = statistics.median(timed.setup)
    ref_s = statistics.median(timed.host_refs)
    scale = HOST_REF_NOMINAL_S / ref_s
    runs = len(timed.walls)
    e2e = {
        "wall_s": wall_s * scale,
        "records_per_s": inputs.lines / (wall_s * scale),
        "peak_rss_mb": statistics.median(timed.rss),
        "setup_s": setup_s * scale,
    }
    refs = " ".join(f"{x:.4f}" for x in timed.host_refs)
    show("host reference", ref_s, "s",
         f"median of {len(timed.host_refs)} (times below scaled by "
         f"{HOST_REF_NOMINAL_S} / {ref_s:.4f}): {refs}")
    samples = " ".join(f"{x:.4f}" for x in timed.walls)
    show("wall_s", e2e["wall_s"], "s", f"median of {runs} runs, measured {samples}")
    show("records_per_s", e2e["records_per_s"], "1/s", f"{inputs.lines} records / wall_s")
    show("peak_rss_mb", e2e["peak_rss_mb"], "MB",
         f"median of {runs} runs; max over each run's processes")
    show("setup_s", e2e["setup_s"], "s",
         f"median of {len(timed.setup)} fresh `import snsgraph.cli`, measured {setup_s:.4f}")
    show("error_rate", timed.failed / timed.attempted, "ratio",
         f"{timed.failed} failed of {timed.attempted} attempted")
    for name, digest in timed.hashes.items():
        print(f"  sha256 {digest} {name}")

    layer, attempted, failed = {}, timed.attempted, timed.failed
    if trace:
        attempted += 1
        traced_out = work / "traced"
        trace_refs = [host_ref(env, work)]
        traces, children = traced_run(w, inputs, seed, env, traced_out)
        trace_refs.append(host_ref(env, work))
        trace_scale = HOST_REF_NOMINAL_S / statistics.median(trace_refs)
        layer, shares = per_layer_metrics(traces, children, trace_scale, timed, scale, e2e)
        layer["bench.host_ref_s"] = ref_s
        print(f"  traced run: host reference {' '.join(f'{x:.4f}' for x in trace_refs)} s, "
              f"traced times scaled by {trace_scale:.4f}")
        errors = ["no timed run passed its checks"] if reference is None else []
        try:
            if reference is not None:
                cli, traced = cli_results(w, reference), traced_results(traces)
                errors += [f"traced {k} {traced[k]!r} != CLI {cli[k]!r}"
                           for k in cli if cli[k] != traced[k]]
                errors += [f"traced {name} differs from the timed runs'"
                           for name, digest in hashes(w, traced_out).items()
                           if digest != timed.hashes[name]]
        except (OSError, KeyError, IndexError, ValueError) as exc:
            errors.append(f"unreadable output: {exc!r}")
        for line in errors:
            print(f"  FAILED traced run: {line}")
        failed += bool(errors)
        merged = {"run_id": traces[0]["run_id"], "workload": w.name, "seed": seed,
                  "processes": traces}
        (root / WORK_DIR / f"trace-{w.name}-s{seed}.json").write_text(
            json.dumps(merged, indent=1) + "\n", encoding="utf-8")
        print(f"  per-layer (one traced run of {len(children)} process(es), run id "
              f"{merged['run_id']}):")
        for name, value in layer.items():
            show(name, value, units[name])
        stage = shares["traced_total_s"]
        core = sum(shares[k] for k in ("ingest", "model", "community", "report"))
        print(f"  shares of traced stage time {stage:.4f} s: layout.run_s "
              f"{layer['layout.run_s'] / stage:.3f}; ingest+model+community+report "
              f"self {core / stage:.3f}; import_gexf {layer['report.import_gexf_s']:.4f} s; "
              f"dedup_useful_ratio = {layer['collector.records_emitted']:.0f} emitted / "
              f"{layer['collector.items_fetched']:.0f} fetched")
    return Outcome(e2e, layer, attempted, failed)


def metric_block(spec: list[dict], values: dict, prefix: str = "") -> dict:
    return {
        prefix + m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec
    }


def _deadline(signum, frame):
    raise TimeoutError(f"run exceeded {RUN_DEADLINE_S} s")


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description="snsgraph end-to-end benchmark")
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "snsgraph" / "cli.py").is_file():
        print("perfbench: run from the root of an snsgraph checkout "
              "(no src/snsgraph/cli.py here)", file=sys.stderr)
        return 2
    spec = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    (root / WORK_DIR).mkdir(exist_ok=True)
    print("# environment " + json.dumps(environment()))

    signal.signal(signal.SIGALRM, _deadline)
    every = args.workload == "all"
    names = list(WORKLOADS) if every else [args.workload]
    trace = bool(args.trace) or every
    metrics, attempted, failed = {}, 0, 0
    try:
        for name in names:
            signal.alarm(RUN_DEADLINE_S)
            outcome = run_workload(WORKLOADS[name], args.seed, args.seconds, trace, root, units)
            signal.alarm(0)
            attempted += outcome.attempted
            failed += outcome.failed
            prefix = f"{name}." if every else ""
            if every or not trace:
                metrics.update(metric_block(spec["end_to_end"], outcome.e2e, prefix))
            if trace:
                metrics.update(metric_block(spec["per_layer"], outcome.layer, prefix))
    except (RuntimeError, TimeoutError, OSError, KeyError, ValueError) as exc:
        signal.alarm(0)
        print(f"perfbench: error: {exc}", file=sys.stderr)
        return 1
    print(f"# harness peak RSS {resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024:.1f} MB "
          "(a spawned process's peak RSS reads at least this)")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
