#!/usr/bin/env python3
"""Offline benchmark of cgeckit's synthesis and scoring pipelines.

    python3 bench/run.py --workload synth-short --seed 1 --seconds 20 --trace 0

Builds the workload's inputs from --seed, then runs the real subcommands
(filter, generate, augment, stats, score) in-process through
`cgeckit.cli.run`, with --workers 1, over and over for --seconds, and checks
every output. With --trace 0 it reports the end-to-end metrics; with
--trace 1 it runs the pipeline under span tracing and reports per-layer
metrics. Times are CPU seconds scaled to reference speed (reference.py).
The last line of stdout is one JSON object; the exit code is 1 when a
correctness check fails. See bench/README.md.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import io
import json
import math
import os
import shutil
import subprocess
import sys
import traceback
from contextlib import redirect_stderr, redirect_stdout
from statistics import fmean
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, HERE)

import reference  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

KEEP_PERCENT = 90
# An untraced stage shorter than this is repeated within its pass, so that
# millisecond-long stages are not timed from single samples.
MIN_STAGE_S = 0.25
SETUP_PROBES = 12  # fresh interpreters per --trace 0 run

# Stage -> (end-to-end metric, unit). The count each throughput divides by
# is chosen in `_throughputs`.
THROUGHPUT = {
    "filter": ("filter_sent_per_s", "sentences/s"),
    "generate": ("generate_sent_per_s", "sentences/s"),
    "augment": ("augment_sent_per_s", "sentences/s"),
    "stats": ("stats_pairs_per_s", "pairs/s"),
    "score": ("score_sent_per_s", "sentences/s"),
}

# A fresh interpreter's set-up: import, resource tables, tagger lexicon.
SETUP_PROBE = """
import json, sys, time
w0, c0 = time.perf_counter(), time.process_time()
import cgeckit.cli
from cgeckit.resources import load_resources
from cgeckit.tagging import get_tagger
load_resources(sys.argv[1])
get_tagger()
print(json.dumps({"cpu": time.process_time() - c0, "wall": time.perf_counter() - w0}))
"""


# One pass, each stage once, in a fresh interpreter; prints its peak RSS in KiB.
RSS_PROBE = """
import json, resource, sys
sys.path.insert(0, sys.argv[1])
import cgeckit.cli, run, workloads
args = json.loads(sys.argv[2])
pipe = run.Pipeline(cgeckit.cli, workloads.Inputs(**args["inputs"]), args["seed"], args["work"])
for stage, argv in pipe.argvs():
    if pipe.invoke(argv)[0] != 0:
        sys.exit(f"stage {stage} failed")
print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
"""


class BenchError(Exception):
    """A correctness check failed."""


def _lines(path: str) -> list[str]:
    with open(path, encoding="utf-8") as fh:
        return fh.read().splitlines()


def _json(path: str):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


class Pipeline:
    """One workload's stage commands over fixed input and output paths."""

    def __init__(self, cli, inputs: workloads.Inputs, seed: int, work: str):
        self.cli, self.inputs, self.seed = cli, inputs, seed
        self.out = os.path.join(work, "out")
        os.makedirs(self.out, exist_ok=True)
        self.path = {
            name: os.path.join(self.out, name)
            for name in ("filtered.txt", "gen.jsonl", "aug.jsonl", "stats.json", "score.json")
        }

    def argvs(self) -> list[tuple[str, list[str]]]:
        p, i, seed = self.path, self.inputs, str(self.seed)
        return [
            ("filter", ["filter", "--input", i.corpus, "--output", p["filtered.txt"],
                        "--keep", str(KEEP_PERCENT)]),
            ("generate", ["generate", "--input", p["filtered.txt"], "--output", p["gen.jsonl"],
                          "--resources", i.tables, "--seed", seed, "--per-sentence", "2",
                          "--combine-max", "2", "--workers", "1"]),
            ("augment", ["augment", "--input", p["filtered.txt"], "--output", p["aug.jsonl"],
                         "--seed", seed, "--workers", "1"]),
            ("stats", ["stats", "--input", p["gen.jsonl"], "--per-type",
                       "--output", p["stats.json"]]),
            ("score", ["score", "--hyp", i.hyp, "--m2", i.m2, "--char-tokenize",
                       "--report", p["score.json"]]),
        ]

    def invoke(self, argv: list[str]) -> tuple[int, str]:
        """Run one subcommand; returns (exit code, captured stdout).

        A traceback counts as a failed stage with exit code -1.
        """
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            try:
                code = self.cli.run(argv)
            except Exception:
                traceback.print_exc()
                code = -1
        if code != 0:
            sys.stderr.write(f"bench: `{argv[0]}` exited {code}: {err.getvalue()}")
        return code, out.getvalue()

    def run(self, tracer: spans.Tracer | None = None) -> dict:
        """One pass over all stages; times exclude the output checks. A
        stage that fails ends the run.

        Stage runs are timed in CPU seconds, unscaled. Untraced, a stage
        runs again until its runs add up to MIN_STAGE_S of wall-clock time,
        and its time is their mean; traced, each stage runs once, so that
        counters do not depend on the machine's speed. `wall` is the sum of
        the stage times; `clock` is the same sum in wall-clock time, for
        reading only. The reference kernel runs before the first stage run
        and after each one; `kernels` holds its times."""
        times: dict[str, float] = {}
        clock: dict[str, float] = {}
        kernels = [reference.kernel_time()]
        for stage, argv in self.argvs():
            walls: list[float] = []
            cpus: list[float] = []
            while not walls or (tracer is None and sum(walls) < MIN_STAGE_S):
                w0, c0 = perf_counter(), reference.cpu_seconds()
                if tracer is None:
                    code, stdout = self.invoke(argv)
                else:
                    with tracer.span(f"cli.{stage}"):
                        code, stdout = self.invoke(argv)
                cpu, wall = reference.cpu_seconds() - c0, perf_counter() - w0
                if code != 0:
                    raise BenchError(f"stage {stage} failed")
                kernels.append(reference.kernel_time())
                walls.append(wall)
                cpus.append(cpu)
            clock[stage] = sum(walls) / len(walls)
            times[stage] = sum(cpus) / len(cpus)
        return {"times": times, "wall": sum(times.values()), "clock": sum(clock.values()),
                "kernels": kernels, "digest": self.digest(stdout)}

    def digest(self, score_stdout: str) -> str:
        h = hashlib.sha256(score_stdout.encode())
        for name in sorted(os.listdir(self.out)):
            h.update(name.encode())
            with open(os.path.join(self.out, name), "rb") as fh:
                h.update(fh.read())
        return h.hexdigest()


# --- correctness checks ----------------------------------------------------


def check_outputs(pipe: Pipeline) -> dict:
    """Invariant checks of one pass's outputs; raises BenchError.

    Returns the operation counts: every generate and augment pair is one
    operation, and a generate pair whose incorrect text equals its correct
    text (stacked rules that cancel out) is a failed one.
    """
    from cgeckit.core import pair_from_json

    p, inputs = pipe.path, pipe.inputs
    corpus = _lines(inputs.corpus)
    filtered = _lines(p["filtered.txt"])
    expected = math.ceil(KEEP_PERCENT * len(corpus) / 100)
    if len(filtered) != expected:
        raise BenchError(f"filter kept {len(filtered)} lines, expected {expected}")
    it = iter(corpus)
    if not all(line in it for line in filtered):
        raise BenchError("filter output is not an in-order subset of its input")

    def pairs(path: str, prefix: str) -> list:
        out = []
        for lineno, line in enumerate(_lines(path), 1):
            pair = pair_from_json(line, lineno)  # checks the edit round trip
            index = int(pair.id.split("-")[1])
            if not pair.id.startswith(prefix) or pair.correct != filtered[index]:
                raise BenchError(f"{path}:{lineno}: pair {pair.id} does not match its input line")
            out.append(pair)
        return out

    gen = pairs(p["gen.jsonl"], "pair-")
    degenerate = sum(pair.incorrect == pair.correct for pair in gen)
    report = _json(p["gen.jsonl"] + ".report.json")
    fires = sum(len(pair.rule_id.split("+")) for pair in gen)
    if (report["sentences_read"], report["pairs_emitted"]) != (len(filtered), len(gen)) \
            or report["pairs_emitted"] + report["skipped"] != 2 * len(filtered) \
            or sum(report["rule_fires"].values()) != fires:
        raise BenchError(f"generate report {report} does not match its {len(gen)} lines")

    aug = pairs(p["aug.jsonl"], "aug-")
    report = _json(p["aug.jsonl"] + ".report.json")
    if len(aug) != len(filtered) or report["sentences_read"] != len(filtered) \
            or report["words_seen"] != sum(report["op_counts"].values()):
        raise BenchError(f"augment report {report} does not match its {len(aug)} lines")

    corpus_stats = _json(p["stats.json"])["corpus"]
    want = {"Number of Sentences": len(gen), "Number of References": len(gen),
            "Erroneous Sentences": len(gen) - degenerate}
    if any(corpus_stats[k] != v for k, v in want.items()):
        raise BenchError(f"stats {corpus_stats} do not match the {len(gen)} generate lines")

    score = _json(p["score.json"])
    if len(score["chosen_annotators"]) != inputs.n_gold \
            or not 0 <= score["precision"] <= 1 or not 0 <= score["recall"] <= 1:
        raise BenchError(f"score report {score} does not cover {inputs.n_gold} sentences")

    return {"pairs": len(gen), "attempted": len(gen) + len(aug), "failed": degenerate,
            "filtered": len(filtered)}


def check_control(pipe: Pipeline) -> None:
    """Perfect hypotheses must score P = R = F = 1."""
    report = os.path.join(pipe.out, "..", "control.json")
    code, _ = pipe.invoke(["score", "--hyp", pipe.inputs.control_hyp, "--m2",
                           pipe.inputs.control_m2, "--char-tokenize", "--report", report])
    prf = ()
    if code == 0:
        doc = _json(report)
        prf = (doc["precision"], doc["recall"], doc["f_0.5"])
    if prf != (1.0, 1.0, 1.0):
        raise BenchError(f"perfect-hypothesis control: exit {code}, (P, R, F0.5) = {prf}")


def check_padding(pipe: Pipeline, work: str, sample: int = 200) -> None:
    """Padded tables must give the same generate bytes as the shipped ones."""
    lines = _lines(pipe.inputs.corpus)[:sample]
    path = os.path.join(work, "sample.txt")
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(line + "\n" for line in lines)
    shipped = os.path.join(workloads.data_dir(SRC), "resources")
    outputs = []
    for tables in (shipped, pipe.inputs.tables):
        out = os.path.join(work, f"sample-{len(outputs)}.jsonl")
        code, _ = pipe.invoke(["generate", "--input", path, "--output", out, "--resources", tables,
                               "--seed", str(pipe.seed), "--per-sentence", "2", "--combine-max", "2"])
        if code != 0:
            raise BenchError("generate failed on the padding sample")
        with open(out, "rb") as fh:
            outputs.append(fh.read())
    if outputs[0] != outputs[1]:
        raise BenchError("padded tables change generate output")


# --- measurement -----------------------------------------------------------


def setup_probe(tables: str) -> dict:
    """Set-up time of one fresh interpreter, measured inside it: {"cpu": CPU
    s, "wall": wall-clock s}."""
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run([sys.executable, "-c", SETUP_PROBE, tables], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        raise BenchError(f"set-up probe failed: {proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def peak_rss_mb(pipe: Pipeline) -> float:
    """Largest resident set, in MiB, of a fresh interpreter that runs each
    stage once. A fresh process has the same history on every run, which
    the benchmark process, whose stage repeats depend on the machine's
    speed, has not."""
    env = dict(os.environ, PYTHONPATH=SRC)
    args = json.dumps({"inputs": dataclasses.asdict(pipe.inputs), "seed": pipe.seed,
                       "work": os.path.join(os.path.dirname(pipe.out), "rss")})
    proc = subprocess.run([sys.executable, "-c", RSS_PROBE, HERE, args], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        raise BenchError(f"memory probe failed: {proc.stderr.strip()}")
    return int(proc.stdout.strip().splitlines()[-1]) / 1024


def _operations(runs: list, counts: dict) -> dict:
    """Operations of one pass, which every other pass repeats byte for byte:
    its five stage runs plus its generate and augment pairs, of which the
    degenerate generate pairs failed. Counting one pass, not all of them,
    keeps the counts independent of how many passes the machine's speed
    allowed."""
    return {"passes": len(runs), "attempted": len(THROUGHPUT) + counts["attempted"],
            "failed": counts["failed"]}


def _throughputs(times: dict, counts: dict, n_lines: int, n_gold: int) -> dict[str, float]:
    per_stage = {"filter": n_lines, "generate": counts["filtered"], "augment": counts["filtered"],
                 "stats": counts["pairs"], "score": n_gold}
    return {THROUGHPUT[s][0]: per_stage[s] / times[s] for s in THROUGHPUT}


def repeat(pipe: Pipeline, seconds: float, reference: str, tracer_factory=None,
           at_least: int = 1, between=None) -> list[tuple[dict, spans.Tracer | None]]:
    """Run passes for about `seconds`, at least `at_least` of them; each must
    reproduce `reference`, and `between()`, if given, runs after each. A
    pass that would likely end past `seconds` is not started, so a run's
    length does not depend on the machine's speed by more than one pass."""
    runs = []
    start = last = perf_counter()
    while len(runs) < at_least or 2 * perf_counter() - last - start < seconds:
        last = perf_counter()
        tracer = tracer_factory() if tracer_factory else None
        if tracer is None:
            result = pipe.run()
        else:
            with spans.traced(tracer):
                result = pipe.run(tracer)
        if result["digest"] != reference:
            raise BenchError("outputs differ between passes with the same seed")
        runs.append((result, tracer))
        if between:
            between()
    return runs


def timed_passes(pipe: Pipeline, seconds: float, between=None) -> tuple[list, dict]:
    """Untraced passes for about `seconds`. The first one's outputs are
    checked and become the reference the others must reproduce."""
    start = perf_counter()
    first = pipe.run()
    counts = check_outputs(pipe)
    runs = [(first, None)] + repeat(pipe, seconds - (perf_counter() - start), first["digest"],
                                    between=between)
    return runs, counts


def measure(pipe: Pipeline, seconds: float) -> dict:
    """End-to-end metrics with tracing off. The memory probe runs first;
    set-up probes run between the passes, spread evenly over the run's
    time, so that they sample the whole run, not one stretch of it."""
    inputs = pipe.inputs
    probes: list[dict] = []
    start = perf_counter()
    rss = peak_rss_mb(pipe)

    def probe() -> None:
        due = min(SETUP_PROBES, math.ceil(SETUP_PROBES * (perf_counter() - start) / seconds))
        while len(probes) < due:
            probes.append(setup_probe(inputs.tables))

    runs, counts = timed_passes(pipe, seconds - (perf_counter() - start), between=probe)
    while len(probes) < SETUP_PROBES:
        probes.append(setup_probe(inputs.tables))
    kernels = [k for r, _ in runs for k in r["kernels"]]
    factor = reference.factor(kernels)
    times = {stage: factor * fmean(r["times"][stage] for r, _ in runs) for stage in THROUGHPUT}
    metrics = {"setup_s": (factor * fmean(p["cpu"] for p in probes), "s"),
               "wall_s": (factor * fmean(r["wall"] for r, _ in runs), "s")}
    rates = _throughputs(times, counts, inputs.n_lines, inputs.n_gold)
    for name, unit in THROUGHPUT.values():
        metrics[name] = (rates[name], unit)
    metrics["peak_rss_mb"] = (rss, "MiB")
    clock = {"setup_s": fmean(p["wall"] for p in probes),
             "wall_s": fmean(r["clock"] for r, _ in runs)}
    return {"metrics": metrics, "clock": clock, "kernels": kernels, **_operations(runs, counts)}


def _layer_metrics(tracer: spans.Tracer, factor: float, counts: dict, n_gold: int) -> dict:
    """A traced pass's counters, and its self times scaled by `factor`."""
    calls, busy = tracer.summary()
    c = tracer.counts
    exact = {
        "tagging.segment_and_tag.calls": calls["tagging.segment_and_tag"],
        "tagging.segment_and_tag.chars": c["tagging.segment_and_tag.chars"],
        "tagging.identify_roles.calls": calls["tagging.identify_roles"],
        "resources.load_resources.rows": c["resources.load_resources.rows"],
        "rules.apply_fine_rule.calls": calls["rules.apply_fine_rule"],
        "rules.apply_fine_rule.fired_ratio":
            c["rules.apply_fine_rule.fired"] / calls["rules.apply_fine_rule"],
        "core.diff_edits.calls": calls["core.diff_edits"],
        "core.diff_edits.cells": c["core.diff_edits.cells"],
        "core.diff_edits.wasted_ratio": c["core.diff_edits.wasted"] / calls["core.diff_edits"],
        "core.pair_to_json.calls": calls["core.pair_to_json"],
        "core.pair_from_json.calls": calls["core.pair_from_json"],
        "generator.generate_pair.calls": calls["generator.generate_pair"],
        "generator.generate_pair.none_ratio":
            c["generator.generate_pair.none"] / calls["generator.generate_pair"],
        "lm.perplexity.calls": calls["lm.perplexity"],
        "metrics.levenshtein.calls": calls["metrics.levenshtein"],
        "metrics.levenshtein.cells": c["metrics.levenshtein.cells"],
        "metrics.levenshtein.calls_per_pair": calls["metrics.levenshtein"] / counts["pairs"],
        "metrics.extract_system_edits.calls": calls["metrics.extract_system_edits"],
        "metrics.extract_system_edits.cells": c["metrics.extract_system_edits.cells"],
        "metrics.extract_system_edits.calls_per_sentence":
            calls["metrics.extract_system_edits"] / n_gold,
    }
    timed = {
        name + ".self_s": factor * busy[name]
        for name in ("tagging.segment_and_tag", "tagging.identify_roles",
                     "resources.load_resources", "rules.apply_fine_rule", "core.diff_edits",
                     "core.pair_to_json", "core.pair_from_json", "generator.generate_pair",
                     "lm.train_lm", "lm.perplexity", "metrics.levenshtein", "metrics.parse_m2",
                     "metrics.extract_system_edits", "metrics.score_corpus")
    }
    timed.update({f"cli.{stage}.self_s": factor * busy[f"cli.{stage}"] for stage in THROUGHPUT})
    return {"exact": exact, "timed": timed}


def _unit(name: str) -> str:
    suffix = name.rsplit(".", 1)[1]
    return {"self_s": "s", "calls": "count", "chars": "chars", "rows": "rows",
            "cells": "cells"}.get(suffix, "ratio")


def measure_layers(pipe: Pipeline, seconds: float, spans_path: str) -> dict:
    """Per-layer metrics: untraced passes, then traced ones."""
    plain, counts = timed_passes(pipe, seconds / 3)
    traced = repeat(pipe, seconds * 2 / 3, plain[0][0]["digest"], spans.Tracer, at_least=2)
    kernels = [k for r, _ in plain + traced for k in r["kernels"]]
    factor = reference.factor(kernels)
    layers = [_layer_metrics(tracer, factor, counts, pipe.inputs.n_gold) for _, tracer in traced]
    for other in layers[1:]:
        if other["exact"] != layers[0]["exact"]:
            diff = {k: (v, other["exact"][k]) for k, v in layers[0]["exact"].items()
                    if other["exact"][k] != v}
            raise BenchError(f"traced counters differ between passes with the same seed: {diff}")
    traced[0][1].write(spans_path)
    metrics = {name: (value, _unit(name)) for name, value in layers[0]["exact"].items()}
    for name in layers[0]["timed"]:
        metrics[name] = (fmean(layer["timed"][name] for layer in layers), "s")
    metrics["trace.wall_s"] = (factor * fmean(r["wall"] for r, _ in traced), "s")
    metrics["trace.untraced_wall_s"] = (factor * fmean(r["wall"] for r, _ in plain), "s")
    return {"metrics": metrics, "kernels": kernels, **_operations(traced, counts)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "cgeckit", "cli.py")):
        print(f"bench: package source not found under {SRC}; run from a checkout of the "
              "repository", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import cgeckit.cli

    base = os.path.join(ROOT, ".bench_work")
    work = os.path.join(base, f"{args.workload}-s{args.seed}-p{os.getpid()}")
    correct, problem = True, ""
    try:
        inputs = workloads.build(args.workload, args.seed, SRC, work)
        pipe = Pipeline(cgeckit.cli, inputs, args.seed, work)
        if workloads.WORKLOADS[args.workload].table_scale > 1:
            check_padding(pipe, work)
        check_control(pipe)
        if args.trace:
            spans_path = os.path.join(base, f"spans-{args.workload}.jsonl")
            result = measure_layers(pipe, args.seconds, spans_path)
        else:
            result = measure(pipe, args.seconds)
    except Exception as exc:  # a crashed check is a failed one too
        correct, problem = False, f"{type(exc).__name__}: {exc}"
        if not isinstance(exc, BenchError):
            traceback.print_exc()
        result = {"metrics": {}, "passes": 0, "attempted": 1, "failed": 1}
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{result['passes']} timed passes; times are CPU seconds scaled to reference speed "
          f"(bench/reference.py)")
    for name, (value, unit) in result["metrics"].items():
        print(f"  {name:<50} {value:>14.6g} {unit}")
    for name, value in result.get("clock", {}).items():
        print(f"  {name + ' (wall clock, unscaled)':<50} {value:>14.6g} s")
    if result.get("kernels"):
        kernels = result["kernels"]
        print(f"  {'reference kernel (mean of ' + str(len(kernels)) + ' runs)':<50} "
              f"{sum(kernels) / len(kernels):>14.6g} s (scaled to {reference.REFERENCE_S} s)")
    print(f"  {'failed_frac':<50} {result['failed'] / result['attempted']:>14.6g} ratio "
          f"({result['failed']} failed of {result['attempted']} operations of one pass: its "
          f"{len(THROUGHPUT)} stage runs plus its generate and augment pairs; a failed "
          f"generate pair has incorrect == correct)")
    if not correct:
        print(f"bench: correctness check failed: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in result["metrics"].items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
