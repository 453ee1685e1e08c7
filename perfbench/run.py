#!/usr/bin/env python3
"""Host-side benchmark of the page-replacement simulator.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

It builds perfbench/perfbench.exe (release profile, build tree under
_perfbench/), then runs every repetition as a fresh process, so no
process-global cache or GC high-water mark carries over between
repetitions.  Every repetition's output is checked before its timings
count.  The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}.

--trace 0 times the workload end to end and reports medians over the
repetitions that fit in --seconds.  --trace 1 makes the traced run: the
same workload once untraced, its trials replayed serially without and
with the outside-in wrappers, and reports the per-layer metrics (see
perfbench/LAYERS.md).

    python3 perfbench/run.py --pin

recomputes the reference values in perfbench/pinned.json and prints them.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time

WORKLOADS = ("paper-sweep", "fullscale-clock", "tpch-mglru-zram-x16", "ycsb-a-telemetry")
SERIAL = WORKLOADS[1:]
PINNED_TRIALS = 8          # the seed picks one of this many pinned trials
MIN_REPS = 3
SETUP_SPAWNS = 5           # extra set-up-only processes per run, for setup_s
CHILD_TIMEOUT_S = 100     # keeps a hung repetition inside a 180 s run
BENCH_DIR = "_perfbench"
PINNED = os.path.join("perfbench", "pinned.json")
GOLDEN_FIG1 = os.path.join("test", "golden", "fig1-fast.out")
MARKER = "PERFBENCH "


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def nproc():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def build():
    for needed in ("dune-project", "lib", os.path.join("perfbench", "dune")):
        if not os.path.exists(needed):
            fail(f"run from the root of a source checkout: {needed} is missing")
    os.makedirs(os.path.join(BENCH_DIR, "out"), exist_ok=True)
    env = dict(os.environ, DUNE_CACHE="disabled")
    cmd = ["dune", "build", "--root", ".", "--profile", "release",
           "--build-dir", os.path.abspath(os.path.join(BENCH_DIR, "build")),
           "perfbench/perfbench.exe"]
    try:
        r = subprocess.run(cmd, env=env, stdout=subprocess.PIPE,
                           stderr=subprocess.STDOUT, text=True, timeout=840)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"build failed: {e}", 1)
    if r.returncode != 0:
        sys.stderr.write(r.stdout)
        fail("build failed", 1)
    return os.path.join(BENCH_DIR, "build", "default", "perfbench", "perfbench.exe")


def child(exe, *args):
    """Run one perfbench.exe process; returns (parsed result, stdout
    before the result line, spawn time), or (None, error text, spawn time)."""
    t_spawn = time.time()
    try:
        r = subprocess.run([exe, *args], stdout=subprocess.PIPE, text=True,
                           timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return None, f"timed out after {CHILD_TIMEOUT_S}s", t_spawn
    head, _, last = r.stdout.rstrip("\n").rpartition("\n")
    if r.returncode != 0 or not last.startswith(MARKER):
        return None, f"exit code {r.returncode}", t_spawn
    return json.loads(last[len(MARKER):]), head, t_spawn


def load_pinned():
    with open(PINNED) as f:
        return json.load(f)


# ---------------------------------------------------------------------------
# Output checks.  Each trial plus its check is one op; a raise, timeout or
# mismatch fails it.
# ---------------------------------------------------------------------------

def section(text, start, end):
    lines = text.split("\n")
    try:
        i, j = lines.index(start), lines.index(end)
    except ValueError:
        return None
    return "\n".join(lines[i + 1:j]) + "\n"


def md5(text):
    return hashlib.md5(text.encode()).hexdigest()


def check_rep(workload, trial, res, text, pinned):
    """Returns (attempted, labels of failed trials, notes) for one repetition."""
    trials = res["trials"]
    bad = {t["label"] for t in trials if "error" in t}
    notes = [f"{t['label']}: {t['error']}" for t in trials if "error" in t]
    if workload == "paper-sweep":
        with open(GOLDEN_FIG1) as f:
            golden = f.read()
        if section(text, "@@figure 1", "@@figure 9") != golden:
            notes.append(f"Figure 1 differs from {GOLDEN_FIG1}")
            bad |= {t["label"] for t in trials if "/ssd/" in t["label"]}
        fig9 = section(text, "@@figure 9", "@@end")
        if fig9 is None or md5(fig9) != pinned["paper-sweep"]["fig9_md5"]:
            notes.append("Figure 9 digest differs from the pinned one")
            bad |= {t["label"] for t in trials if "/zram/" in t["label"]}
        # The figures print rounded ratios; the trial digests catch what
        # rounding hides.
        want = pinned["paper-sweep"]["trials"]
        for t in trials:
            if t.get("digest") != want.get(t["label"]):
                notes.append(f"{t['label']}: digest differs from the pinned one")
                bad.add(t["label"])
    else:
        want = pinned[workload][str(trial)]
        for t in trials:
            if t.get("digest") != want["digest"]:
                notes.append(f"{t['label']}: digest differs from the pinned one")
                bad.add(t["label"])
        for key in ("trace_events", "sample_rows"):
            if key in want and res.get(key) != want[key]:
                notes.append(f"{key} {res.get(key)} != pinned {want[key]}")
                bad |= {t["label"] for t in trials}
    return len(trials), bad, notes


# ---------------------------------------------------------------------------
# --trace 0: end-to-end timing.
# ---------------------------------------------------------------------------

def rep_args(workload, trial, jobs):
    return ["rep", workload, "--trial", str(trial), "--jobs", str(jobs),
            "--out", os.path.join(BENCH_DIR, "out")]


def end_to_end(exe, workload, trial, jobs, seconds, pinned):
    attempted = failed = 0
    setups, reps, notes = [], [], []
    for i in range(SETUP_SPAWNS):
        res, err, t_spawn = child(exe, "setup", workload, "--trial", str(trial(i)))
        if res is None:
            return 1, 1, [f"set-up failed: {err}"], {}
        setups.append(res["setup_done"] - t_spawn)
    start = time.time()
    # Stop once another repetition would overrun --seconds by more than
    # half a repetition.
    while len(reps) < MIN_REPS or (
            time.time() - start) + statistics.mean(r["span"] for r in reps) / 2 <= seconds:
        t0 = time.time()
        res, text, t_spawn = child(exe, *rep_args(workload, trial(len(reps)), jobs))
        if res is None:
            attempted += 1
            failed += 1
            notes.append(f"repetition failed: {text}")
            reps.append({"span": time.time() - t0, "ok": False})
            continue
        a, bad, n = check_rep(workload, trial(len(reps)), res, text, pinned)
        attempted, failed, notes = attempted + a, failed + len(bad), notes + n
        setups.append(res["setup_done"] - t_spawn)
        res["span"] = time.time() - t0
        res["ok"] = not bad
        reps.append(res)
    good = [r for r in reps if r["ok"]]
    metrics = {}
    if good:
        def med(f):
            return statistics.median(f(r) for r in good)

        def faults(r):
            return r["sim"]["major_faults"] + r["sim"]["minor_faults"]
        metrics = {
            "wall_s": (med(lambda r: r["wall_s"]), "s"),
            "cpu_s": (med(lambda r: r["cpu_s"]), "s"),
            "setup_s": (statistics.median(setups), "s"),
            "sim_faults_per_s": (med(lambda r: faults(r) / r["wall_s"]), "faults/s"),
            "alloc_words_per_fault": (med(lambda r: r["minor_words"] / faults(r)), "words"),
            "peak_rss_mb": (med(lambda r: r["vm_hwm_kb"] / 1024.0), "MB"),
        }
    print(f"repetitions: {len(reps)} ({len(good)} passed their checks); "
          f"set-up samples: {len(setups)}")
    for i, r in enumerate(good):
        print(f"  rep {i}: wall {r['wall_s']:.3f} s  cpu {r['cpu_s']:.3f} s  "
              f"compute {r['compute_s']:.3f} s  render {r['render_s']:.3f} s")
    return attempted, failed, notes, metrics


# ---------------------------------------------------------------------------
# --trace 1: the traced run.
# ---------------------------------------------------------------------------

def nodes(tree, name):
    return [n for n in tree if n["path"].rsplit("/", 1)[-1] == name]


def total(tree, name, key="total_ns"):
    return sum(n[key] for n in nodes(tree, name))


def kthreads(tree):
    return [n for n in tree if n["path"].rsplit("/", 1)[-1].startswith("policy.kthread.")]


def check_digests(runs):
    """Every labelled trial must have the same digest in every run."""
    ref, bad, notes = {}, set(), []
    for run_name, res in runs:
        for t in res["trials"]:
            d = t.get("digest")
            if d is None:
                bad.add(t["label"])
                notes.append(f"{run_name} {t['label']}: {t.get('error')}")
            elif ref.setdefault(t["label"], (d, run_name))[0] != d:
                bad.add(t["label"])
                notes.append(f"{t['label']}: {run_name} digest differs from "
                             f"{ref[t['label']][1]}")
    return bad, notes


def traced(exe, workload, trial, jobs, pinned):
    out = os.path.join(BENCH_DIR, "out")
    replay = ["replay", workload, "--trial", str(trial), "--out", out]
    steps = [("rep", rep_args(workload, trial, jobs)),
             ("plain", replay),
             ("traced", replay + ["--traced"])]
    if workload == "ycsb-a-telemetry":
        steps.append(("plain-off", replay + ["--telemetry", "off"]))
    results, texts = {}, {}
    for name, args in steps:
        res, texts[name], _ = child(exe, *args)
        if res is None:
            return 1, 1, [f"{name} run failed: {texts[name]}"], {}
        results[name] = res
    _, bad, notes = check_rep(workload, trial, results["rep"], texts["rep"], pinned)
    bad_digests, n = check_digests(
        [(name, results[name]) for name in ("rep", "plain", "traced")])
    bad |= bad_digests
    notes += n
    rep, plain, tr = results["rep"], results["plain"], results["traced"]
    tree, ptree = tr["tree"], plain["tree"]
    if not tr["spans_nest"] or not plain["spans_nest"]:
        notes.append("logged spans do not nest")
        bad |= {t["label"] for t in tr["trials"]}

    trial_s = sorted(t["trial_s"] for t in plain["trials"])
    run_s = total(tree, "machine.run") / 1e9
    plain_run_s = total(ptree, "machine.run") / 1e9
    pgscan = tr["pgscan"]
    m = {
        "runner.prefetch_s": (rep["compute_s"], "s"),
        "runner.trial_s.p50": (statistics.median(trial_s), "s"),
        "runner.trial_s.max": (trial_s[-1], "s"),
        "pool.busy_frac": (sum(trial_s) / (jobs * rep["compute_s"]), "ratio"),
        "machine.run_s": (run_s, "s"),
        "machine.self_s": (total(tree, "machine.run", "self_ns") / 1e9, "s"),
        "machine.reclaim_page_s": (total(tree, "machine.reclaim_page") / 1e9, "s"),
        "machine.reclaim_page.calls": (total(tree, "machine.reclaim_page", "calls"), "count"),
        "machine.reclaim_page.minor_words": (total(tree, "machine.reclaim_page", "words"), "words"),
        "policy.on_page_mapped_s": (total(tree, "policy.on_page_mapped") / 1e9, "s"),
        "policy.on_page_mapped.calls": (total(tree, "policy.on_page_mapped", "calls"), "count"),
        "policy.on_page_mapped.minor_words": (total(tree, "policy.on_page_mapped", "words"), "words"),
        "policy.on_page_touched.calls": (tr["on_page_touched_calls"], "count"),
        "policy.reclaim_s": ((sum(n["self_ns"] for n in kthreads(tree))
                              + total(tree, "policy.direct_reclaim", "self_ns")) / 1e9, "s"),
        "policy.kthread.steps": (sum(n["calls"] for n in kthreads(tree)), "count"),
        "policy.direct_reclaim.calls": (total(tree, "policy.direct_reclaim", "calls"), "count"),
        "policy.freed_per_scanned": (tr["pgsteal"] / pgscan if pgscan else 0.0, "ratio"),
        "workload.next_s": (total(tree, "workload.next") / 1e9, "s"),
        "workload.next.calls": (total(tree, "workload.next", "calls"), "count"),
        "workload.next.minor_words": (total(tree, "workload.next", "words"), "words"),
        "workload.setup_s": (total(ptree, "workload.setup") / 1e9, "s"),
        "obs.overhead_frac": (0.0, "ratio"),
        "obs.trace_events": (rep.get("trace_events", 0), "count"),
        "obs.sample_rows": (rep.get("sample_rows", 0), "count"),
        "obs.bytes_written": (rep.get("bytes_written", 0), "bytes"),
        "obs.minor_words_per_event": (0.0, "words"),
        "swapdev.swap_ins": (tr["sim"]["swap_ins"], "count"),
        "swapdev.swap_outs": (tr["sim"]["swap_outs"], "count"),
        "mem.major_faults": (tr["sim"]["major_faults"], "count"),
        "mem.minor_faults": (tr["sim"]["minor_faults"], "count"),
        "gc.minor_collections": (rep["gc"]["minor_collections"], "count"),
        "gc.major_collections": (rep["gc"]["major_collections"], "count"),
        "gc.promoted_words": (rep["gc"]["promoted_words"], "words"),
        "gc.heap_top_words": (rep["gc"]["heap_top_words"], "words"),
        "trace.overhead_frac": (run_s / plain_run_s - 1.0, "ratio"),
    }
    extra = {
        "runner.readback_s": (rep["render_s"], "s"),
        "pool.idle_s": (jobs * rep["compute_s"] - sum(trial_s), "s"),
        "machine.evictable.calls": (tr["evictable_calls"], "count"),
        "policy.direct_reclaim_s": (total(tree, "policy.direct_reclaim", "self_ns") / 1e9, "s"),
    }
    for kind in ("tpch", "pagerank", "ycsb"):
        ts = [t["trial_s"] for t in plain["trials"] if t["label"].startswith(kind)]
        if ts:
            extra[f"runner.trial_s.{kind}"] = (sum(ts), "s")
    for k in sorted({n["path"].rsplit("/", 1)[-1] for n in kthreads(tree)}):
        extra[f"{k}_s"] = (total(tree, k, "self_ns") / 1e9, "s")
        extra[f"{k}.steps"] = (total(tree, k, "calls"), "count")
    if "read_p99_ns" in tr["sim"]:
        extra["swapdev.read_p99_ns"] = (tr["sim"]["read_p99_ns"], "ns (simulated)")
    if workload == "ycsb-a-telemetry":
        off = results["plain-off"]
        off_s = total(off["tree"], "machine.run") / 1e9
        events = max(1, plain["trace_events"])
        m["obs.overhead_frac"] = ((plain_run_s - off_s) / off_s, "ratio")
        m["obs.minor_words_per_event"] = (
            (total(ptree, "machine.run", "words") - total(off["tree"], "machine.run", "words"))
            / events, "words")
        extra["obs.overhead_s"] = (plain_run_s - off_s, "s")
        extra["obs.write_s"] = (rep["render_s"], "s")
        for key in ("trace_events", "sample_rows"):
            want = pinned[workload][str(trial)][key]
            if plain[key] != want or tr[key] != want:
                notes.append(f"replayed {key} differ from the pinned {want}")
                bad |= {t["label"] for t in tr["trials"]}
        if off["trials"][0].get("digest") != tr["trials"][0].get("digest"):
            notes.append("telemetry changed the simulated result")
            bad |= {t["label"] for t in tr["trials"]}

    print_layer_table(workload, tree, m, extra, run_s)
    return len(tr["trials"]), len(bad), notes, m


def print_layer_table(workload, tree, m, extra, run_s):
    print(f"per-layer table, traced replay of {workload}:")
    print(f"  {'span':<72} {'calls':>10} {'total s':>9} {'self s':>9} {'self words':>13}")
    for n in tree:
        print(f"  {n['path']:<72} {n['calls']:>10} {n['total_ns'] / 1e9:>9.3f} "
              f"{n['self_ns'] / 1e9:>9.3f} {n['self_words']:>13}")
    runs = nodes(tree, "machine.run")
    inside = sum(n["self_ns"] for n in tree
                 if any(n["path"].startswith(r["path"]) for r in runs))
    print(f"  self times under machine.run sum to {inside / 1e9:.3f} s "
          f"of machine.run_s {run_s:.3f} s")
    for name, (v, unit) in list(m.items()) + list(extra.items()):
        print(f"  {name:<40} {v:>16.6g} {unit}")


# ---------------------------------------------------------------------------

def provenance(jobs):
    def cmd(*args):
        try:
            return subprocess.run(args, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                                  text=True, timeout=10).stdout.strip() or "unknown"
        except (OSError, subprocess.TimeoutExpired):
            return "unknown"
    print(f"host: nproc {nproc()}, jobs {jobs}, OCaml {cmd('ocamlfind', 'ocamlopt', '-version')}, "
          f"build profile release, commit {cmd('git', 'rev-parse', '--short', 'HEAD')}")
    print("model unvalidated against hardware; no error figure")


def pin(exe):
    pinned = {"paper-sweep": {}}
    res, text, _ = child(exe, *rep_args("paper-sweep", 0, min(2, nproc())))
    pinned["paper-sweep"]["fig9_md5"] = md5(section(text, "@@figure 9", "@@end"))
    pinned["paper-sweep"]["trials"] = {t["label"]: t["digest"] for t in res["trials"]}
    for w in SERIAL:
        pinned[w] = {}
        for trial in range(PINNED_TRIALS):
            res, _, _ = child(exe, "pin", w, "--trial", str(trial))
            pinned[w][str(trial)] = res
    print(json.dumps(pinned, indent=1, sort_keys=True))


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=20)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--pin", action="store_true")
    a = p.parse_args()
    if not a.pin and a.workload is None:
        p.error("--workload is required")
    exe = build()
    if a.pin:
        pin(exe)
        return
    pinned = load_pinned()
    jobs = min(2, nproc()) if a.workload == "paper-sweep" else 1
    # The seed picks the trial indices of a serial workload: repetition i
    # runs trial (seed + i) mod PINNED_TRIALS, so every run covers much
    # the same mix of trials.  The sweep's seeds are fixed by the figure
    # grid.
    def trial(i):
        return (a.seed + i) % PINNED_TRIALS
    provenance(jobs)
    print(f"workload {a.workload}, seed {a.seed} -> first trial {trial(0)}")
    if a.trace:
        attempted, failed, notes, metrics = traced(exe, a.workload, trial(0), jobs, pinned)
    else:
        attempted, failed, notes, metrics = end_to_end(
            exe, a.workload, trial, jobs, a.seconds, pinned)
    for n in notes:
        print(f"check failed: {n}")
    print(f"failed_frac {failed / max(1, attempted):.4f} ({failed} of {attempted} ops)")
    print(json.dumps({
        "correct": failed == 0 and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))


if __name__ == "__main__":
    main()
