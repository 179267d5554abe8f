#!/usr/bin/env python3
"""End-to-end benchmark of mining, serving and refreshing.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Builds latent_mine, latent_served and the
benchmark's own perfbench_tool into .bench_build/, generates the workload's
inputs from the seed into a fresh directory under .bench_runs/, runs the
workload against the shipped binaries as child processes, checks their
outputs against the generator's planted truth, and prints one JSON line:
{"correct", "attempted", "failed", "metrics"}. With --trace 0 the metrics
are the end-to-end ones; with --trace 1 one round of the workload runs and
perfbench_tool times every layer's public functions in-process. See
perfbench/README.md for the workloads, metrics and checks.
"""
import argparse
import json
import os
import shutil
import signal
import socket
import statistics
import struct
import subprocess
import sys
import tempfile
import threading
import time

ROOT = os.getcwd()
HERE = os.path.dirname(os.path.abspath(__file__))
BUILD = os.path.join(ROOT, ".bench_build")
RUNS = os.path.join(ROOT, ".bench_runs")
TOOL = os.path.join(BUILD, "perfbench_tool")
MINE = os.path.join(BUILD, "latent", "tools", "latent_mine")
SERVED = os.path.join(BUILD, "latent", "tools", "latent_served")
WORKLOADS = ("mine_em", "mine_spectral", "serve", "refresh")
# Output checks: top-5 term (and author) purity of each level-1 topic.
PURITY_FLOOR = 0.6
# A daemon must give its first answer / drain within these bounds.
START_TIMEOUT_S = 120
STOP_TIMEOUT_S = 30


class CheckFailed(Exception):
    pass


def check(cond, what):
    if not cond:
        raise CheckFailed(what)


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds the three binaries from source."""
    logf = os.path.join(BUILD, "build.log")
    os.makedirs(BUILD, exist_ok=True)
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD, "-j", str(os.cpu_count() or 1),
                  "--target", "latent_mine", "latent_served_cli",
                  "perfbench_tool"])
    with open(logf, "a") as out:
        for cmd in steps:
            if subprocess.call(cmd, stdout=out, stderr=out) != 0:
                with open(logf) as f:
                    sys.stderr.write(f.read()[-4000:])
                raise SystemExit("build failed: " + " ".join(cmd))


class Proc:
    """A child process timed from its spawn, reaped with wait4 for rusage.

    stderr lines are read on a thread and time-stamped, so a phase the
    program reports on stderr (e.g. "loaded N docs") can be timed from
    outside without turning on the program's own tracing.
    """

    def __init__(self, argv, stdout_path):
        self.lines = []
        self.t0 = time.perf_counter()
        with open(stdout_path, "wb") as out:
            self.p = subprocess.Popen(argv, stdout=out, stderr=subprocess.PIPE)
        self.reader = threading.Thread(target=self._read, daemon=True)
        self.reader.start()
        self.rusage = None
        self.status = None
        self.end = None

    def _read(self):
        for raw in self.p.stderr:
            self.lines.append((time.perf_counter(), raw.decode(errors="replace")))

    def first_line_at(self, prefix):
        for t, line in self.lines:
            if line.startswith(prefix):
                return t - self.t0
        return None

    def wait(self, timeout=None):
        deadline = None if timeout is None else time.time() + timeout
        while True:
            pid, status, ru = os.wait4(self.p.pid, os.WNOHANG)
            if pid != 0:
                break
            if deadline is not None and time.time() > deadline:
                self.p.kill()
                pid, status, ru = os.wait4(self.p.pid, 0)
                break
            time.sleep(0.002)
        self.end = time.perf_counter()
        self.p.returncode = os.waitstatus_to_exitcode(status)
        self.status = self.p.returncode
        self.rusage = ru
        self.reader.join(timeout=5)
        return self.status

    def wall_s(self):
        return self.end - self.t0

    def cpu_s(self):
        return self.rusage.ru_utime + self.rusage.ru_stime

    def rss_mb(self):
        return self.rusage.ru_maxrss / 1024.0

    def stderr_text(self):
        return "".join(line for _, line in self.lines)


def gen(workload, seed, deltas, d):
    rc = subprocess.call([TOOL, "gen", workload, str(seed), str(deltas), d])
    check(rc == 0, "generator failed")
    with open(os.path.join(d, "config.json")) as f:
        return json.load(f)


def mine_argv(cfg, d, out_prefix, equal_weights=False):
    argv = [MINE, "--corpus", os.path.join(d, "corpus.txt"),
            "--levels", "%d,%d" % tuple(cfg["levels"]),
            "--min-support", str(cfg["min_support"]),
            "--threads", str(cfg["threads"]),
            "--inference", cfg["inference"],
            "--json", out_prefix + ".json", "--save", out_prefix + ".bin"]
    if cfg["entities"]:
        argv += ["--entities", os.path.join(d, "entities.tsv")]
    if equal_weights:
        argv.append("--equal-weights")
    return argv


# ---------------------------------------------------------------- checks


def word_areas(cfg):
    areas = {}
    for a, area in enumerate(cfg["areas"]):
        for w in area["words"]:
            areas[w] = a
        for sub in area["subareas"]:
            for w in sub["words"]:
                areas[w] = a
    return areas


def author_areas(cfg):
    return {au: a for a, area in enumerate(cfg["areas"])
            for sub in area["subareas"] for au in sub["authors"]}


def printed_phrases(tree_txt):
    """Multi-word phrases of the printed tree, by node path."""
    out = []
    for line in tree_txt.splitlines():
        path, _, rest = line.strip().partition(": ")
        if path == "o":
            continue
        for ph in rest.split(" / "):
            if len(ph.split()) > 1:
                out.append((path, ph))
    return out


def count_occurrences(text, phrase):
    needle = " " + phrase + " "
    n = text.count(needle)
    if len(set(phrase.split())) < len(phrase.split()):
        # Self-overlapping phrase: count every start position.
        n, i = 0, text.find(needle)
        while i >= 0:
            n += 1
            i = text.find(needle, i + 1)
    return n


def check_mine_outputs(cfg, d, prefix):
    """Checks one latent_mine run's printed tree and --json export."""
    with open(prefix + ".txt") as f:
        tree_txt = f.read()
    with open(prefix + ".json") as f:
        tree = json.load(f)
    levels = cfg["levels"]
    top = tree["children"]
    check(len(top) == levels[0],
          "%d level-1 topics, planted %d areas" % (len(top), levels[0]))
    # Level-1 topics map one to one onto the planted areas.
    words = word_areas(cfg)
    authors = author_areas(cfg)
    mapped = []
    for node in top:
        for kind, table in (("term", words), ("author", authors)):
            if kind == "author" and not cfg["entities"]:
                continue
            labels = [table.get(x, -1) for x in node["top_nodes"][kind]]
            best = max(set(labels), key=labels.count)
            purity = labels.count(best) / float(len(labels))
            check(best >= 0 and purity >= PURITY_FLOOR,
                  "%s top-%s purity %.2f (area %d)" % (
                      node["path"], kind, purity, best))
            if kind == "term":
                mapped.append(best)
            else:
                check(best == mapped[-1],
                      "%s: authors point at area %d, terms at %d" % (
                          node["path"], best, mapped[-1]))
    check(sorted(mapped) == list(range(levels[0])),
          "level-1 topics map to areas %s" % mapped)
    # rho of each node's children in (0, 1], summing to at most 1.
    stack = [tree]
    while stack:
        node = stack.pop()
        kids = node["children"]
        if kids:
            rhos = [k["rho"] for k in kids]
            check(all(0 < r <= 1 for r in rhos), "%s rho %s" % (node["path"], rhos))
            check(sum(rhos) <= 1 + 1e-5, "%s rho sum %.6f" % (node["path"], sum(rhos)))
        stack.extend(kids)
    # Every multi-word phrase printed occurs >= min_support times.
    with open(os.path.join(d, "corpus.txt")) as f:
        text = " " + f.read().replace("\n", " \n ") + " "
    phrases = printed_phrases(tree_txt)
    check(phrases, "no multi-word phrase printed")
    for path, ph in set(phrases):
        n = count_occurrences(text, ph)
        check(n >= cfg["min_support"],
              "%s phrase %r occurs %d times" % (path, ph, n))
    return tree, tree_txt


def tree_nodes(tree):
    out, stack = [], [(tree, 0)]
    while stack:
        node, depth = stack.pop()
        out.append((node, depth))
        stack.extend((k, depth + 1) for k in node["children"])
    return out


def serve_script(cfg, tree, tree_txt):
    """Check requests (verb, k, arg, kind) for the serve workload."""
    reqs = []
    for node, _ in tree_nodes(tree):
        reqs.append(("lookup", -1, node["path"], "lookup"))
    for node in [tree] + tree["children"]:
        reqs.append(("subtree", 1, node["path"], "subtree"))
    seen = set()
    for path, ph in printed_phrases(tree_txt):
        if path.count("/") == 1 and ph not in seen:
            seen.add(ph)
            reqs.append(("search", -1, ph, "search"))
    if cfg["entities"]:
        for node in tree["children"]:
            for au in node["top_nodes"]["author"][:2]:
                reqs.append(("entity", -1, "author:" + au, "entity"))
            reqs.append(("entity", -1, "venue:" + node["top_nodes"]["venue"][0],
                         "entity"))
    return reqs


def check_serve_answers(tree, checks):
    nodes = {n["path"]: (n, depth) for n, depth in tree_nodes(tree)}
    for c in checks:
        check(c["code"] == 0, "%s %s failed: %s" % (c["verb"], c["arg"], c["body"]))
        body = c["body"]
        if c["verb"] == "lookup":
            node, depth = nodes[c["arg"]]
            head = body.splitlines()[0].split()
            fields = dict(x.split("=", 1) for x in head[2:])
            check(head[1] == c["arg"] and int(fields["level"]) == depth,
                  "lookup %s header %s" % (c["arg"], head))
            check(int(fields["children"]) == len(node["children"]),
                  "lookup %s children=%s, export has %d" % (
                      c["arg"], fields["children"], len(node["children"])))
        elif c["verb"] == "subtree":
            node, _ = nodes[c["arg"]]
            listed = [l.split()[1] for l in body.splitlines()
                      if l.startswith("topic ")]
            want = [c["arg"]] + sorted(k["path"] for k in node["children"])
            check(listed[:1] + sorted(listed[1:]) == want,
                  "subtree %s 1 lists %s" % (c["arg"], listed))
        elif c["verb"] == "search":
            top = body.splitlines()[0].split("\t") if body else []
            want = len(set(c["arg"].split()))
            check(len(top) > 2 and top[2] == "matched=%d" % want,
                  "search %r top hit %s" % (c["arg"], top))
        elif c["verb"] == "entity":
            scores = [float(l.split("\t")[2]) for l in body.splitlines()]
            check(scores and all(0 < s <= 1 for s in scores),
                  "entity %s scores %s" % (c["arg"], scores))
            check(all(a >= b for a, b in zip(scores, scores[1:])),
                  "entity %s scores not non-increasing" % c["arg"])


# ---------------------------------------------------------------- daemon


def call(sock, payload):
    sock.sendall(struct.pack(">I", len(payload)) + payload)
    head = b""
    while len(head) < 4:
        chunk = sock.recv(4 - len(head))
        if not chunk:
            raise OSError("connection closed")
        head += chunk
    n = struct.unpack(">I", head)[0]
    body = b""
    while len(body) < n:
        chunk = sock.recv(n - len(body))
        if not chunk:
            raise OSError("connection closed")
        body += chunk
    return body


def first_answer(port_file, proc):
    """Polls until the daemon answers `lookup o`; returns seconds from spawn."""
    while True:
        if proc.p.poll() is not None:
            raise CheckFailed("daemon exited during start-up:\n" + proc.stderr_text())
        check(time.perf_counter() - proc.t0 < START_TIMEOUT_S, "daemon start timed out")
        try:
            with open(port_file) as f:
                port = int(f.read().strip())
            with socket.create_connection(("127.0.0.1", port), timeout=5) as s:
                resp = call(s, b"lsrv1 q 0 -1 lookup o")
            if resp.startswith(b"lsrv1 r 0 "):
                return time.perf_counter() - proc.t0, port
        except (OSError, ValueError):
            pass
        time.sleep(0.001)


def stop_daemon(proc):
    proc.p.send_signal(signal.SIGTERM)
    rc = proc.wait(timeout=STOP_TIMEOUT_S)
    check(rc == 0, "daemon exited %s after SIGTERM:\n%s" % (rc, proc.stderr_text()[-2000:]))


def serve_argv(cfg, d, port_file, extra):
    argv = [SERVED, "--corpus", os.path.join(d, "corpus.txt"),
            "--levels", "%d,%d" % tuple(cfg["levels"]),
            "--min-support", str(cfg["min_support"]),
            "--threads", str(cfg["threads"]),
            "--max-inflight", str(cfg["max_inflight"]),
            "--max-queue", str(cfg["max_queue"]),
            "--port", "0", "--port-file", port_file]
    if cfg["entities"]:
        argv += ["--entities", os.path.join(d, "entities.tsv")]
    return argv + extra


def load(cfg, d, mode, port, pid, rounds, extra):
    out = os.path.join(d, "load.json")
    argv = [TOOL, "load", "--mode", mode, "--workload", cfg["workload"],
            "--seed", str(cfg["seed"]), "--port", str(port), "--pid", str(pid),
            "--rounds", str(rounds), "--dir", d, "--out", out] + extra
    rc = subprocess.call(argv)
    check(rc == 0, "load generator exited %d" % rc)
    with open(out) as f:
        return json.load(f)


# ---------------------------------------------------------------- workloads


def run_mine(cfg, d, seconds):
    """latent_mine from the input files to the printed tree, --json, --save.

    Round r mines corpus r % corpora; corpus c > 0 comes from seed
    seed * 1000 + c. A corpus's first mine is checked against its planted
    truth, and every later mine of it must save the same tree.
    """
    corpora = [(d, cfg)]
    for c in range(1, cfg["corpora"]):
        sub = os.path.join(d, "corpus%d" % c)
        os.makedirs(sub)
        corpora.append((sub, gen(cfg["workload"], cfg["seed"] * 1000 + c, 0, sub)))
    trees = {}
    walls, cpus, rss, setup = [], [], [], None
    t_end = time.perf_counter() + seconds
    while not walls or time.perf_counter() < t_end:
        cdir, ccfg = corpora[len(walls) % len(corpora)]
        prefix = os.path.join(cdir, "tree%d" % len(walls))
        proc = Proc(mine_argv(ccfg, cdir, prefix), prefix + ".txt")
        rc = proc.wait()
        check(rc == 0, "latent_mine exited %d:\n%s" % (rc, proc.stderr_text()))
        # Set-up: spawn to the moment the inputs are loaded.
        loaded = proc.first_line_at(
            "loaded 2 entity types" if ccfg["entities"] else "loaded ")
        check(loaded is not None, "latent_mine never reported its inputs loaded")
        if setup is None:
            setup = loaded
        walls.append(proc.wall_s())
        cpus.append(proc.cpu_s())
        rss.append(proc.rss_mb())
        with open(prefix + ".bin", "rb") as f:
            blob = f.read()
        if cdir not in trees:
            trees[cdir] = blob
            check_mine_outputs(ccfg, cdir, prefix)
        else:
            check(blob == trees[cdir],
                  "repeated mine of one corpus saved a different tree")
    # Each corpus's median mine, averaged over the corpora: the median keeps
    # a noisy round out, the mean weighs every corpus's EM cost equally.
    def per_corpus(values):
        return statistics.mean(statistics.median(values[c::len(corpora)])
                               for c in range(min(len(corpora), len(values))))
    mine_s = per_corpus(walls)
    metrics = {
        "setup_s": setup,
        "work_s": mine_s,
        # A mine round has one request, the mine: its p50 and p99 are its
        # latency.
        "latency_p50_ms": mine_s * 1e3,
        "latency_p99_ms": mine_s * 1e3,
        "cpu_s": per_corpus(cpus),
        "peak_rss_mb": statistics.median(rss),
    }
    return metrics, len(walls), 0, {"mines": len(walls)}


def base_mine(cfg, d, equal_weights=False):
    prefix = os.path.join(d, "tree")
    proc = Proc(mine_argv(cfg, d, prefix, equal_weights), prefix + ".txt")
    rc = proc.wait()
    check(rc == 0, "base latent_mine exited %d:\n%s" % (rc, proc.stderr_text()))
    return prefix


def run_serve(cfg, d, seconds):
    check_mine_outputs(cfg, d, base_mine(cfg, d))
    with open(os.path.join(d, "tree.json")) as f:
        tree = json.load(f)
    with open(os.path.join(d, "tree.txt")) as f:
        tree_txt = f.read()
    reqs = serve_script(cfg, tree, tree_txt)
    script = os.path.join(d, "script.tsv")
    with open(script, "w") as f:
        for verb, k, arg, _ in reqs:
            f.write("%s\t%d\t%s\n" % (verb, k, arg))
        with open(os.path.join(d, "queries_head.txt")) as head:
            for line in head:
                verb, _, arg = line.rstrip("\n").partition(" ")
                k = -1
                if verb == "subtree":
                    arg, _, depth = arg.rpartition(" ")
                    k = int(depth)
                f.write("%s\t%d\t%s\n" % (verb, k, arg))
    port_file = os.path.join(d, "port")
    proc = Proc(serve_argv(cfg, d, port_file, ["--tree", os.path.join(d, "tree.bin")]),
                os.path.join(d, "served.out"))
    try:
        setup, port = first_answer(port_file, proc)
        round_s = cfg["open_s"] + 1.0
        rounds = max(1, int(seconds / round_s))
        res = load(cfg, d, "serve", port, proc.p.pid, rounds, ["--script", script])
    finally:
        if proc.status is None:
            stop_daemon(proc)
    check_serve_answers(tree, res["checks"][:len(reqs)])
    check(res["compared"] == len(reqs) + cfg["head_queries"], "compared %d" % res["compared"])
    check(res["mismatches"] == 0,
          "%d answers differ from the in-process engine" % res["mismatches"])
    check(res["open_failed"] == 0 and res["closed_failed"] == 0,
          "queries failed: %s" % res["errors"])
    attempted = res["open_attempted"] + res["closed_attempted"] + res["probes"]
    metrics = {
        "setup_s": setup,
        "work_s": statistics.median(res["closed_s"]),
        "latency_p50_ms": statistics.median(res["round_p50"]),
        "latency_p99_ms": statistics.median(res["round_p99"]),
        "cpu_s": res["cpu_s"],
        "peak_rss_mb": proc.rss_mb(),
    }
    info = {"rounds": rounds, "open": res["open"], "late_ms": res["late"],
            "closed_s": res["closed_s"], "round_p50": res["round_p50"],
            "round_p99": res["round_p99"],
            "serve_qps": cfg["closed_queries"] / metrics["work_s"],
            "probes": res["probes"], "probes_failed": res["probes_failed"],
            "probe_error": res["probe_error"]}
    return metrics, attempted, res["probes_failed"], info


def run_refresh(cfg, d, seconds, rounds):
    base = os.path.join(d, "base_ckpt")
    refresh_dir = os.path.join(d, "refresh_ckpt")
    delta_file = os.path.join(d, "delta_log.txt")
    open(delta_file, "w").close()
    port_file = os.path.join(d, "port")
    proc = Proc(serve_argv(cfg, d, port_file, [
        "--delta-corpus", delta_file, "--base-checkpoint-dir", base,
        "--refresh-checkpoint-dir", refresh_dir]), os.path.join(d, "served.out"))
    try:
        setup, port = first_answer(port_file, proc)
        res = load(cfg, d, "refresh", port, proc.p.pid, rounds,
                   ["--delta-file", delta_file])
    finally:
        if proc.status is None:
            stop_daemon(proc)
    check(res["open_failed"] == 0, "queries failed: %s" % res["errors"])
    check(res["refreshes_failed"] == 0, "a refresh never published")
    check(not res["generation_regressed"], "a client saw the generation go back")
    check(res["last_generation"] == 1 + rounds,
          "last generation %d after %d deltas" % (res["last_generation"], rounds))
    for k, c in enumerate(res["phrase_checks"]):
        check(c["before_code"] == 0 and c["before"] == "",
              "delta phrase %r found before its refresh" % c["phrase"])
        top = c["after"].split("\n")[0].split("\t")
        want = "matched=%d" % len(set(c["phrase"].split()))
        check(c["after_code"] == 0 and c["after_generation"] >= k + 2 and
              len(top) > 2 and top[2] == want,
              "delta phrase %r after refresh: %s" % (c["phrase"], top))
    metrics = {
        "setup_s": setup,
        "work_s": statistics.median(res["refresh_s"]),
        "latency_p50_ms": statistics.median(res["round_p50"]),
        "latency_p99_ms": statistics.median(res["round_p99"]),
        "cpu_s": res["cpu_s"],
        "peak_rss_mb": proc.rss_mb(),
    }
    attempted = res["open_attempted"] + rounds
    info = {"deltas": rounds, "refresh_s": res["refresh_s"], "open": res["open"],
            "late_ms": res["late"]}
    return metrics, attempted, 0, info


def refresh_rounds(cfg, seconds):
    return max(1, int(seconds / cfg["delta_every_s"]))


def run_workload(workload, seed, seconds, d):
    deltas = 0
    if workload == "refresh":
        # The delta schedule fills the run: one delta per round.
        probe = gen(workload, seed, 0, d)
        deltas = refresh_rounds(probe, seconds)
    cfg = gen(workload, seed, deltas, d)
    if workload.startswith("mine_"):
        return run_mine(cfg, d, seconds)
    if workload == "serve":
        return run_serve(cfg, d, seconds)
    return run_refresh(cfg, d, seconds, deltas)


def run_traced(workload, seed, d):
    """One round of the workload, then every layer timed in-process."""
    cfg = gen(workload, seed, 0, d)
    traced_deltas = cfg["traced_deltas"]
    if workload == "refresh":
        cfg = gen(workload, seed, max(traced_deltas, 1), d)
        _, attempted, failed, _ = run_refresh(cfg, d, 0, 1)
        # The tree the daemon mined: latent_mine with the daemon's options.
        prefix = base_mine(cfg, d, equal_weights=True)
    else:
        cfg = gen(workload, seed, traced_deltas, d)
        if workload == "serve":
            _, attempted, failed, _ = run_serve(cfg, d, 0)
            prefix = os.path.join(d, "tree")
        else:
            _, attempted, failed, _ = run_mine(cfg, d, 0)
            prefix = os.path.join(d, "tree0")
    out = os.path.join(d, "trace.json")
    rc = subprocess.call([TOOL, "trace", "--workload", workload, "--seed",
                          str(seed), "--dir", d, "--out", out,
                          "--equal-weights", "1" if workload == "refresh" else "0"])
    check(rc == 0, "perfbench_tool trace exited %d" % rc)
    with open(out) as f:
        layers = json.load(f)
    with open(prefix + ".bin", "rb") as f:
        want = f.read()
    with open(os.path.join(d, "composed.bin"), "rb") as f:
        check(f.read() == want,
              "tree composed from the layer calls differs from latent_mine --save")
    return layers, attempted, failed


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    build()
    os.makedirs(RUNS, exist_ok=True)
    d = tempfile.mkdtemp(prefix=args.workload + "-", dir=RUNS)
    correct = True
    try:
        if args.trace:
            values, attempted, failed = run_traced(args.workload, args.seed, d)
            wanted = spec["per_layer"]
        else:
            values, attempted, failed, info = run_workload(
                args.workload, args.seed, args.seconds, d)
            log("info: " + json.dumps(info))
            wanted = spec["end_to_end"]
    except CheckFailed as e:
        log("CHECK FAILED: %s" % e)
        correct, values, attempted, failed = False, {}, 1, 0
        wanted = spec["per_layer" if args.trace else "end_to_end"]
    finally:
        shutil.rmtree(d, ignore_errors=True)
    metrics = {}
    for m in wanted:
        if m["name"] in values:
            metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if correct and missing:
        log("CHECK FAILED: metrics not measured: %s" % missing)
        correct = False
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
