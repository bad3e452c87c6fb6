"""The three benchmark workloads.

Each workload offers ``setup`` (model generation, compile and warm-up; safe
to repeat), ``op`` (the timed unit of work), ``summarize`` (reduces an op's
output to what the checks need, outside the timed region), ``check`` (the
answer checks of one op) and ``extra_checks`` (checks over the whole run).
Only ``op`` is timed.

The seed draws every arrival and service rate of the bipartite cluster
family within +-20 % of its base value and seeds the simulators; model
structure, and so every state count, does not depend on it.  The oracle
cross-check keeps its base rates, because the oracle's solve time depends
on the rates far more than on anything a code change does (NOTES.md).
"""

from __future__ import annotations

import contextlib
import hashlib
import inspect
import io
import json
import math
import random
import statistics
import time
from pathlib import Path

from passandswap import cli, closed, cluster, modelfile, oracle, product_form, sim
from passandswap.sim import SimConfig

import ladder

JITTER = 0.2
BASE_RATES = {name: rate for name, rate, _ in ladder.TYPES} | dict(ladder.MACHINES)

DIRECT_LIMIT = inspect.signature(oracle.solve_stationary).parameters[
    "direct_limit"].default
DIRECT_TV = 1e-10  # README's total-variation claim for the direct solve
# Answers from the uniformization branch are held to empirical margins, not
# to a derived bound: the oracle guarantees max |pi Q| <= 1e-11, and turning
# that residual into a distance between distributions needs the chain's
# conditioning, which nothing here computes.
UNIFORMIZATION_TV = 1e-6  # ~15x the 6.48e-8 measured on the open model, N=10
BLOCKING_GAP = 1e-7  # ~23x the largest gap, 4.4e-9, over seeds 1-11


def draw_rates(seed: int) -> dict[str, float]:
    rng = random.Random(seed)
    return {
        name: rate * rng.uniform(1.0 - JITTER, 1.0 + JITTER)
        for name, rate in BASE_RATES.items()
    }


def run_cli(argv: list[str]) -> tuple[int, str]:
    """``passandswap`` in-process: exit code, and stdout (stderr on error)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue() if code == 0 else err.getvalue().strip()


def tandem_oracle(ct: cluster.CompiledTandem, direct_limit: int):
    """Stationary distribution of a compiled tandem from the generator."""
    gen = oracle.build_generator(
        lambda s: [
            (t.next_state, t.rate)
            for t in closed.tandem_transitions(ct.network, s)
        ],
        ct.initial,
        budget=10 * DIRECT_LIMIT,
    )
    sol = oracle.solve_stationary(gen, direct_limit=direct_limit)
    if len(sol.solutions) != 1 or sol.n_transient_states:
        raise ValueError("the tandem chain is not irreducible")
    return sol.solutions[0].distribution


def first_queue_macrostates(states, n_classes: int) -> int:
    return len({tuple(c.count(i) for i in range(n_classes)) for c, _ in states})


class ClusterExact:
    """Exact cluster solve through ``cluster-analyze``, plus a size ladder."""

    name = "cluster_exact"
    TIMED = ladder.rung_slots(5)  # (2,2,2|2,2,1): 48,384 tandem states
    BUDGET_S = 0.5  # per-solve budget of states_at_budget
    PASSES = 3  # ladder passes per run; rung times are medians over them
    MAX_RUNGS = 40
    STATE_LIMIT = 1_000_000  # cluster-analyze's default --budget
    ENUMERATE_LIMIT = 60_000  # rungs re-enumerated by the count check

    def __init__(self, seed: int, workdir: Path):
        self.rates = draw_rates(seed)
        self.dir = workdir
        self.rungs: list[dict] = []
        self.timed_path = ""
        self._reference = None

    def _write(self, slots) -> str:
        path = self.dir / ("cluster-" + "-".join(map(str, slots)) + ".json")
        path.write_text(json.dumps(ladder.cluster_doc(self.rates, slots)))
        return str(path)

    def _solve(self, path: str) -> tuple[int, str]:
        return run_cli(["cluster-analyze", path, "--format", "json"])

    def setup(self) -> None:
        self.timed_path = self._write(self.TIMED)
        code, text = self._solve(self._write(ladder.rung_slots(0)))
        if code:
            raise RuntimeError(f"warm-up cluster-analyze exited {code}: {text}")

    def run_ladder(self) -> None:
        """Ladder passes.  The first grows the model until a solve takes
        longer than the budget; the others repeat the same rungs."""
        for k in range(self.MAX_RUNGS):
            slots = ladder.rung_slots(k)
            micro, macro = ladder.family_counts(slots)
            if micro > self.STATE_LIMIT:
                break
            rung = {"slots": slots, "states": micro, "macrostates": macro,
                    "path": self._write(slots), "seconds": [], "outputs": []}
            self.rungs.append(rung)
            self._time_rung(rung)
            if rung["outputs"][-1][0] or rung["seconds"][-1] > self.BUDGET_S:
                break
        for _ in range(self.PASSES - 1):
            for rung in self.rungs:
                self._time_rung(rung)

    def _time_rung(self, rung: dict) -> None:
        t0 = time.perf_counter()
        try:
            out = self._solve(rung["path"])
        except Exception as exc:  # a failed solve is counted by the checks
            out = (-1, f"{type(exc).__name__}: {exc}")
        rung["seconds"].append(time.perf_counter() - t0)
        rung["outputs"].append(out)

    def op(self) -> tuple[int, str]:
        return self._solve(self.timed_path)

    def summarize(self, out):
        return out

    def check(self, out) -> list[str]:
        code, text = out
        if code:
            return [f"cluster-analyze exited {code}: {text}"]
        doc = json.loads(text)["result"]
        problems = []
        states = ladder.family_counts(self.TIMED)[0]
        if doc["states"] != states:
            problems.append(f"{doc['states']} states, rung counter says {states}")
        reference = self._reference_blocking()
        for name, value in doc["blocking"].items():
            gap = abs(float(value) - reference[name])
            if not gap <= BLOCKING_GAP:
                problems.append(
                    f"blocking of {name} is {value}, forced-uniformization "
                    f"oracle {reference[name]:.12g} (gap {gap:.3g} above "
                    f"{BLOCKING_GAP:.3g})"
                )
        return problems

    def _reference_blocking(self):
        """Blocking over the forced-uniformization oracle, computed once."""
        if self._reference is None:
            ct = cluster.compile_cluster(modelfile.load_path(self.timed_path).spec)
            dist = tandem_oracle(ct, direct_limit=0)
            self._reference = cluster.metrics(ct, dist).blocking
        return self._reference

    def extra_checks(self, summaries) -> list[tuple[str, list[str]]]:
        items = []
        texts = {text for _, text in summaries}
        items.append(("timed output identical across ops",
                      [] if len(texts) <= 1 else [f"{len(texts)} distinct outputs"]))
        for rung in self.rungs:
            label = f"rung {rung['states']}"
            for code, text in rung["outputs"]:
                if code:
                    problems = [f"exit {code}: {text}"]
                else:
                    got = json.loads(text)["result"]["states"]
                    problems = [] if got == rung["states"] else [
                        f"cluster-analyze reports {got} states"]
                items.append((label, problems))
            if rung["states"] <= self.ENUMERATE_LIMIT:
                items.append((f"{label} enumerated", self._enumerated(rung)))
        return items

    def _enumerated(self, rung: dict) -> list[str]:
        ct = cluster.compile_cluster(modelfile.load_path(rung["path"]).spec)
        analysis = closed.analyze_tandem(ct.network, ct.initial)
        micro = len(analysis.states)
        macro = first_queue_macrostates(analysis.states, len(ct.class_names))
        if (micro, macro) != (rung["states"], rung["macrostates"]):
            return [f"enumeration gives {micro} states and {macro} macrostates, "
                    f"rung counter {rung['states']} and {rung['macrostates']}"]
        return []

    def named(self, op_times: list[float]) -> list[tuple[str, float, str, str]]:
        out = [("solve_s", statistics.median(op_times), "s",
                f"median of {len(op_times)} cluster-analyze runs, "
                f"{self.TIMED} slots")]
        timed = [r for r in self.rungs if r["outputs"] and not r["outputs"][0][0]]
        if len(timed) >= 2:
            points = [(r["states"], r["macrostates"],
                       statistics.median(r["seconds"])) for r in timed]
            micro, macro = ladder.at_budget(points, self.BUDGET_S)
            note = (f"budget {self.BUDGET_S} s, {len(points)} rungs x "
                    f"{self.PASSES} passes")
            out.append(("states_at_budget", micro, "states", note))
            out.append(("macrostates_at_budget", macro, "macrostates", note))
        for r in self.rungs:
            out.append((f"rung_{r['states']}_s", statistics.median(r["seconds"]),
                        "s", f"slots {r['slots']}, {r['macrostates']} macrostates"))
        return out


class ClusterSim:
    """Protocol simulator on the (2,2,2|2,2,2) spec and tandem simulator on
    its compiled tandem (157,248 states)."""

    name = "cluster_sim"
    SLOTS = ladder.rung_slots(6)
    PROTOCOL = (50_000, 10)  # events per replication, replications
    TANDEM = (750_000, 1)
    CACHE_LIMIT = 100_000  # states the tandem simulator's move cache holds
    Z = 5.0  # standard errors allowed between the two simulators' blocking

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.doc = ladder.cluster_doc(draw_rates(seed), self.SLOTS)
        self.spec = self.ct = None

    def setup(self) -> None:
        self.spec = modelfile.parse_document(self.doc).spec
        self.ct = cluster.compile_cluster(self.spec)
        self._simulate(2_000, 2, 2_000, 1)

    def _simulate(self, pe: int, pr: int, te: int, tr: int):
        p = sim.simulate_protocol(
            self.spec, SimConfig(events=pe, replications=pr, seed=self.seed))
        t = sim.simulate(
            self.ct.network, SimConfig(events=te, replications=tr, seed=self.seed),
            initial=self.ct.initial)
        return p, t

    @property
    def events(self) -> int:
        return self.PROTOCOL[0] * self.PROTOCOL[1] + self.TANDEM[0] * self.TANDEM[1]

    def op(self):
        return self._simulate(*self.PROTOCOL, *self.TANDEM)

    def summarize(self, out) -> dict:
        p, t = out
        digest = hashlib.sha256()
        for table in (p.occupancy, p.counters, p.fractions, t.occupancy, t.counters):
            for item in sorted(table.items()):
                digest.update(repr(item).encode())
        return {
            "digest": digest.hexdigest(),
            "protocol": {
                k: (p.fractions[f"blocking:{k}"], p.fraction_stderr[f"blocking:{k}"])
                for k in self.ct.type_names
            },
            "tandem": dict(cluster.metrics(self.ct, t.occupancy).blocking),
            "distinct": len(t.occupancy),
        }

    def check(self, s: dict) -> list[str]:
        problems = []
        if not s["distinct"] > self.CACHE_LIMIT:
            problems.append(f"tandem run visited only {s['distinct']} states")
        # The two simulators run the same chain, so the tandem estimate's
        # standard error scales from the protocol's by the event counts.
        scale = math.sqrt(1.0 + (self.PROTOCOL[0] * self.PROTOCOL[1])
                          / (self.TANDEM[0] * self.TANDEM[1]))
        for k, (mean, err) in s["protocol"].items():
            gap = abs(mean - s["tandem"][k])
            if not gap <= self.Z * err * scale:
                problems.append(
                    f"blocking of {k}: protocol {mean:.5f} +- {err:.5f}, "
                    f"tandem {s['tandem'][k]:.5f}")
        return problems

    def extra_checks(self, summaries) -> list[tuple[str, list[str]]]:
        digests = [s["digest"] for s in summaries]
        if len(digests) == 1:
            digests.append(self.summarize(self.op())["digest"])
        ok = len(digests) >= 2 and len(set(digests)) == 1
        return [("replay with the same seed gives the same digest",
                 [] if ok else [f"digests {sorted(set(digests))}"])]

    def named(self, op_times: list[float]) -> list[tuple[str, float, str, str]]:
        return [("sim_events_per_s", self.events / statistics.median(op_times),
                 "1/s", f"{self.events} events per op, median of {len(op_times)} ops")]


class OracleCrosscheck:
    """``oracle-compare`` on both sides of the solver's ``direct_limit``,
    and partial balance on the open model.  The models keep their base
    rates whatever the seed (see the module docstring)."""

    name = "oracle_crosscheck"
    # The 3-class path-graph open model of the CLI tests.
    OPEN_DOC = {
        "schema": "pands-open/1",
        "classes": 3,
        "arrival_rates": [0.8, 0.8, 0.8],
        "rate_function": {
            "kind": "multi_server",
            "server_rates": [1.0, 1.0],
            "compat": [[1], [2], [1, 2]],
        },
        "swapping_edges": [[1, 2], [2, 3]],
    }
    CAPACITY = 10  # 88,573 states: the uniformization branch
    TANDEM = ladder.rung_slots(3)  # (2,2,2|1,1,1): 7,560 states, direct branch
    PB_MAX_LEN = 6

    def __init__(self, seed: int, workdir: Path):
        self.dir = workdir
        self.queue = None
        self.open_path = self.tandem_path = ""

    def _tandem_file(self, slots) -> str:
        spec = modelfile.parse_document(ladder.cluster_doc(BASE_RATES, slots)).spec
        doc = modelfile.dump_compiled(cluster.compile_cluster(spec))
        path = self.dir / ("tandem-" + "-".join(map(str, slots)) + ".json")
        path.write_text(json.dumps(doc))
        return str(path)

    def setup(self) -> None:
        path = self.dir / "open-path3.json"
        path.write_text(json.dumps(self.OPEN_DOC))
        self.open_path = str(path)
        self.queue = modelfile.parse_document(self.OPEN_DOC).queue
        self.tandem_path = self._tandem_file(self.TANDEM)
        for argv in (["oracle-compare", self.open_path, "-N", "3"],
                     ["oracle-compare", self._tandem_file(ladder.rung_slots(0))]):
            code, text = run_cli(argv + ["--format", "json"])
            if code:
                raise RuntimeError(f"warm-up exited {code}: {text}")
        product_form.verify_partial_balance(self.queue, 2)

    def op(self):
        open_out = run_cli(["oracle-compare", self.open_path, "-N",
                            str(self.CAPACITY), "--format", "json"])
        tandem_out = run_cli(["oracle-compare", self.tandem_path, "--format", "json"])
        pb = product_form.verify_partial_balance(self.queue, self.PB_MAX_LEN)
        return open_out, tandem_out, (pb.ok, pb.max_residual, pb.states_checked)

    def summarize(self, out):
        return out

    def check(self, out) -> list[str]:
        (c1, t1), (c2, t2), (pb_ok, pb_res, pb_states) = out
        problems = []
        expected = {
            "open": (3 ** (self.CAPACITY + 1) - 1) // 2,
            "tandem": ladder.family_counts(self.TANDEM)[0],
        }
        for label, code, text in (("open", c1, t1), ("tandem", c2, t2)):
            if code:
                problems.append(f"{label} oracle-compare exited {code}: {text}")
                continue
            doc = json.loads(text)["result"]
            n = doc["states"]
            if n != expected[label]:
                problems.append(f"{label}: {n} states, expected {expected[label]}")
            bound = DIRECT_TV if n <= DIRECT_LIMIT else UNIFORMIZATION_TV
            tv = float(doc["total_variation"])
            if not tv <= bound:
                problems.append(f"{label}: total variation {tv:.3g} above {bound:.3g}")
        if not pb_ok:
            problems.append(f"partial balance residual {pb_res:.3g}")
        if pb_states != sum(3 ** k for k in range(self.PB_MAX_LEN + 1)):
            problems.append(f"partial balance checked {pb_states} states")
        return problems

    def extra_checks(self, summaries) -> list[tuple[str, list[str]]]:
        return []

    def named(self, op_times: list[float]) -> list[tuple[str, float, str, str]]:
        return [("crosscheck_s", statistics.median(op_times), "s",
                 f"median of {len(op_times)} cross-check ops")]


WORKLOADS = {w.name: w for w in (ClusterExact, ClusterSim, OracleCrosscheck)}
