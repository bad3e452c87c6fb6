"""Command-line interface.

Every subcommand reads a versioned model file, runs one analysis pipeline,
and emits the result either as JSON (``--format json``) or as plain tables,
in both cases under a reproducibility header carrying the tool version, the
model file's SHA-256, and the flags used.  Identical inputs and flags yield
byte-identical output.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import sys
from pathlib import Path
from typing import Any, Mapping

from . import __version__
from .closed import (
    TandemNetwork,
    analyze_closed,
    analyze_tandem,
    analyze_tandem_macrostates,
    isomorphic_model,
    successors,
    tandem_tables,
)
from .cluster import compile_cluster, macrostate_metrics
from .dynamics import apply_completion
from .errors import (
    ModelFormatError,
    PandsError,
    ResourceError,
    UsageError,
)
from .modelfile import (
    LoadedClosed,
    LoadedCluster,
    LoadedOpen,
    LoadedTandem,
    dump_compiled,
    load_path,
)
from .oracle import (
    build_generator,
    compare_laws,
    open_generator,
    tandem_generator,
    unique_solution,
)
from .product_form import (
    stability_check,
    stationary_truncated,
    truncation_tables,
)
from .sim import SimConfig, simulate, simulate_protocol
from .model import validate_rate_function


def _fmt(value: float) -> str:
    return format(value, ".12g")


def _state_1based(state) -> list[int]:
    return [cls + 1 for cls in state]


def _parse_state(text: str, n_classes: int) -> tuple[int, ...]:
    try:
        state = tuple(int(tok) for tok in text.split(",") if tok.strip())
    except ValueError:
        raise UsageError(f"cannot parse state {text!r}; use e.g. 1,3,2") from None
    for cls in state:
        if not 1 <= cls <= n_classes:
            raise UsageError(f"state {text!r}: class id {cls} outside 1..{n_classes}")
    return tuple(cls - 1 for cls in state)


def _header(args: argparse.Namespace) -> dict:
    flags = {
        k: v
        for k, v in sorted(vars(args).items())
        if k not in {"func", "kinds", "command"} and v is not None
    }
    digest = hashlib.sha256(Path(args.model).read_bytes()).hexdigest()
    return {
        "schema": "pands-output/1",
        "tool": "passandswap",
        "version": __version__,
        "model_sha256": digest,
        "flags": {k: str(v) for k, v in flags.items()},
    }


def _emit(header: dict, payload: dict, warnings: list[str],
          args: argparse.Namespace) -> None:
    out = sys.stdout
    if getattr(args, "output", None):
        out = open(args.output, "w")
    try:
        if args.format == "json":
            doc = {"header": header, "warnings": warnings, "result": payload}
            out.write(json.dumps(doc, indent=2, sort_keys=True))
            out.write("\n")
        else:
            for key, value in header.items():
                if isinstance(value, dict):
                    value = " ".join(f"{k}={v}" for k, v in value.items())
                out.write(f"# {key}: {value}\n")
            for warning in warnings:
                out.write(f"! warning: {warning}\n")
            _render(payload, out)
    finally:
        if out is not sys.stdout:
            out.close()


def _scalar_list(value: Any) -> bool:
    return isinstance(value, list) and not any(
        isinstance(v, (dict, list)) for v in value
    )


def _render(payload: Any, out, indent: str = "") -> None:
    if isinstance(payload, dict):
        for key, value in payload.items():
            if _scalar_list(value):
                body = ", ".join(str(v) for v in value)
                out.write(f"{indent}{key}: [{body}]\n")
            elif isinstance(value, (dict, list)):
                out.write(f"{indent}{key}:\n")
                _render(value, out, indent + "  ")
            else:
                out.write(f"{indent}{key}: {value}\n")
    elif isinstance(payload, list):
        for value in payload:
            if isinstance(value, (dict, list)):
                _render(value, out, indent + "  ")
            else:
                out.write(f"{indent}- {value}\n")
    else:
        out.write(f"{indent}{payload}\n")


def _distribution_rows(probabilities: Mapping, state_key) -> list[dict]:
    # ``state_key`` renders a state and keeps the order of states.
    rows = sorted(probabilities.items(), key=lambda kv: (-kv[1], kv[0]))
    return [
        {"state": state_key(state), "probability": _fmt(p)}
        for state, p in rows
    ]


def _class_rows(partition) -> list[dict]:
    # Every class of an adhering space is closed: see communicating_classes.
    return [{"size": len(c), "closed": True} for c in partition.classes]


def _tandem_state_doc(s) -> dict:
    c, d = s
    return {"first": _state_1based(c), "second": _state_1based(d)}


# The model, initial state and state rendering of each kind of model file,
# for ``simulate``, ``oracle-compare`` and ``classes``.
_CHAINS = {
    LoadedOpen: lambda m: (m.queue, (), _state_1based),
    LoadedClosed: lambda m: (m.queue, m.initial, _state_1based),
    LoadedTandem: lambda m: (m.network, m.initial, _tandem_state_doc),
    LoadedCluster: lambda m: (m.spec, None, list),
}


def _analyze(model, start, budget: int):
    """The closed-queue or tandem analysis of ``model`` from ``start``."""
    if isinstance(model, TandemNetwork):
        return analyze_tandem(model, start, budget=budget)
    return analyze_closed(model, start, budget=budget)


def _cmd_validate(args, loaded) -> tuple[dict, list[str]]:
    report = validate_rate_function(loaded.queue.rate_fn, args.max_total)
    payload = {
        "ok": report.ok,
        "checked_macrostates": report.checked_macrostates,
        "violations": [
            {"kind": v.kind, "witness": repr(v.witness), "detail": v.detail}
            for v in report.violations
        ],
    }
    return payload, []


def _cmd_stability(args, loaded) -> tuple[dict, list[str]]:
    report = stability_check(loaded.queue)
    payload = {
        "stable": report.stable,
        "violations": [
            {
                "classes": sorted(i + 1 for i in subset),
                "arrival_rate": _fmt(arr),
                "saturation_rate": _fmt(sat),
            }
            for subset, arr, sat in report.violations
        ],
        "saturation_rates": [
            {"classes": sorted(i + 1 for i in subset), "rate": _fmt(rate)}
            for subset, rate in sorted(
                report.saturation.items(), key=lambda kv: sorted(kv[0])
            )
        ],
    }
    return payload, []


def _cmd_analyze(args, loaded) -> tuple[dict, list[str]]:
    dist = stationary_truncated(loaded.queue, args.capacity,
                                budget=args.budget)
    payload = {
        "capacity": dist.capacity,
        "states": len(dist.states),
        "empty_probability": _fmt(dist.probability(())),
        "mean_counts": [_fmt(v) for v in dist.mean_counts()],
        "distribution": _distribution_rows(
            dist.probabilities(), _state_1based
        ),
    }
    return payload, []


def _cmd_trace(args, loaded) -> tuple[dict, list[str]]:
    state = _parse_state(args.state, loaded.queue.n_classes)
    if not 1 <= args.position <= len(state):
        raise UsageError(
            f"--position {args.position} outside 1..{len(state)}"
        )
    outcome = apply_completion(loaded.queue.swapping, state,
                               args.position - 1)
    payload = {
        "state": _state_1based(state),
        "position": args.position,
        "chain": [p + 1 for p in outcome.chain],
        "departing_class": outcome.departing_class + 1,
        "next_state": _state_1based(outcome.next_state),
    }
    return payload, []


def _cmd_closed_analyze(args, loaded) -> tuple[dict, list[str]]:
    analysis = analyze_closed(loaded.queue, loaded.initial,
                              budget=args.budget)
    if analysis.order is not None:
        adherence = {
            "adheres": True,
            "placement_arcs": [
                [a + 1, b + 1] for a, b in sorted(analysis.order.arcs)
            ],
        }
    else:
        adherence = {
            "adheres": False,
            "iso_classes": list(analysis.iso.class_names),
        }
    payload = {
        "route": analysis.route,
        "initial_state": _state_1based(analysis.initial),
        "adherence": adherence,
        "states": len(analysis.states),
        "communicating_classes": _class_rows(analysis.partition),
        "distribution": _distribution_rows(
            analysis.distribution, _state_1based
        ),
    }
    return payload, list(analysis.warnings)


def _cmd_tandem_analyze(args, loaded) -> tuple[dict, list[str]]:
    analysis = analyze_tandem(loaded.network, loaded.initial,
                              budget=args.budget)
    payload = {
        "initial_state": _tandem_state_doc(analysis.initial),
        "states": len(analysis.states),
        "communicating_classes": _class_rows(analysis.partition),
        "distribution": _distribution_rows(
            analysis.distribution, _tandem_state_doc
        ),
    }
    return payload, list(analysis.warnings)


def _cmd_classes(args, loaded) -> tuple[dict, list[str]]:
    model, start, _ = _CHAINS[type(loaded)](loaded)
    analysis = _analyze(model, start, args.budget)
    partition = analysis.partition
    payload = {
        "states": len(partition.states),
        "components": _class_rows(partition),
        # Every class is closed (see _class_rows), so no state is transient.
        "transient_states": 0,
    }
    return payload, list(analysis.warnings)


def _cmd_iso(args, loaded) -> tuple[dict, list[str]]:
    iso = isomorphic_model(loaded.queue, loaded.initial)
    payload = {
        "initial_state": _state_1based(loaded.initial),
        "iso_classes": list(iso.class_names),
        "split_map": {
            str(orig + 1): [iso.class_names[i] for i in ids]
            for orig, ids in enumerate(iso.split_map)
        },
        "iso_initial": [iso.class_names[cls] for cls in iso.iso_initial],
        "iso_swapping_edges": [
            [iso.class_names[a], iso.class_names[b]]
            for a, b in sorted(iso.iso_queue.swapping.edges)
        ],
    }
    return payload, []


def _cmd_cluster_compile(args, loaded) -> tuple[dict, list[str]]:
    ct = compile_cluster(loaded.spec)
    doc = dump_compiled(ct)
    if args.emit:
        Path(args.emit).write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    payload = {
        "token_classes": list(ct.class_names),
        "population": list(ct.network.population),
        "placement_arcs": [
            [ct.class_names[a], ct.class_names[b]]
            for a, b in sorted(ct.network.order.arcs)
        ],
        "tandem_model": doc,
    }
    return payload, []


def _cmd_cluster_analyze(args, loaded) -> tuple[dict, list[str]]:
    ct = compile_cluster(loaded.spec)
    analysis = analyze_tandem_macrostates(ct.network, ct.initial,
                                          budget=args.budget)
    m = macrostate_metrics(ct, analysis.distribution)
    payload = {
        "token_classes": list(ct.class_names),
        "states": analysis.states,
        "blocking": {t: _fmt(v) for t, v in m.blocking.items()},
        "throughput": {t: _fmt(v) for t, v in m.throughput.items()},
        "mean_unassigned": {
            k: _fmt(v) for k, v in m.mean_unassigned.items()
        },
        "mean_committed": {k: _fmt(v) for k, v in m.mean_committed.items()},
    }
    return payload, list(analysis.warnings)


def _cmd_simulate(args, loaded) -> tuple[dict, list[str]]:
    if args.top < 0:
        raise UsageError(f"--top {args.top} is negative")
    cfg = SimConfig(
        events=args.events,
        time=args.time,
        warmup=args.warmup,
        seed=args.seed,
        replications=args.reps,
    )
    trace_lines: list[str] = []

    def trace(t, kind, chain, depart):
        chain_txt = ",".join(str(p + 1) for p in chain)
        depart_txt = "-" if depart is None else str(depart + 1)
        trace_lines.append(
            f"t={t:.6f} ev={kind} chain=[{chain_txt}] depart={depart_txt}"
        )

    model, start, key = _CHAINS[type(loaded)](loaded)
    if isinstance(loaded, LoadedCluster):
        if args.trace_log:
            raise UsageError("simulate takes --trace-log on open, closed and "
                             "tandem models only, not on cluster models")
        result = simulate_protocol(model, cfg)
    else:
        result = simulate(model, cfg, capacity=args.capacity, initial=start,
                          trace=trace if args.trace_log else None)
    if args.trace_log:
        Path(args.trace_log).write_text("\n".join(trace_lines) + "\n")
    occupancy = sorted(
        result.occupancy.items(), key=lambda kv: (-kv[1], repr(kv[0]))
    )[: args.top]
    payload = {
        "replications": result.replications,
        "counters": {
            k: _fmt(v) for k, v in sorted(result.counters.items())
        },
        "counter_stderr": {
            k: _fmt(v) for k, v in sorted(result.counter_stderr.items())
        },
        "fractions": {
            k: _fmt(v) for k, v in sorted(result.fractions.items())
        },
        "fraction_stderr": {
            k: _fmt(v) for k, v in sorted(result.fraction_stderr.items())
        },
        "occupancy_top": [
            {"state": key(state), "fraction": _fmt(v)}
            for state, v in occupancy
        ],
    }
    return payload, []


def _solve(gen, dump_matrix: str | None, locate: bool = True):
    """The stationary law of the chain ``gen``, which must be irreducible,
    and with ``locate`` its :meth:`~passandswap.oracle.GeneratorMatrix.locator`,
    which holds no reference to the matrix.  The generator is written to
    ``dump_matrix`` if given.  Callers pass ``gen`` as a temporary, so the
    matrix is freed on return."""
    pi = unique_solution(gen).pi
    if dump_matrix:
        lines = [f"# states {gen.n_states}"]
        coo = gen.matrix.tocoo()
        for u, v, val in zip(coo.row, coo.col, coo.data):
            lines.append(f"{int(u)} {int(v)} {float(val)!r}")
        Path(dump_matrix).write_text("\n".join(lines) + "\n")
    return pi, gen.locator() if locate else None


def _cmd_oracle_compare(args, loaded) -> tuple[dict, list[str]]:
    model, start, key = _CHAINS[type(loaded)](loaded)
    # The laws are compared as arrays in the analytic law's order, ``q[j]``
    # the generator's probability of the analytic side's ``j``-th state;
    # states are built only for the residuals reported.  Each stage holds
    # only what the next reads: the generator is freed once solved.  Where
    # the analytic side can refuse before it walks, it does, and walks
    # after the solve, so that its states and the solver's matrices never
    # meet; a closed queue refuses during its walk, so it walks first.
    if isinstance(loaded, LoadedOpen):
        tables = truncation_tables(model, args.capacity, budget=args.budget)
        pi, _ = _solve(open_generator(model, args.capacity, budget=args.budget),
                       args.dump_matrix, locate=False)
        dist = stationary_truncated(model, args.capacity, tables=tables)
        p, positions, state_of = (dist.probability_list, dist.shortlex,
                                  dist.state_at)
    else:
        if isinstance(model, TandemNetwork):
            tables = tandem_tables(model, start, budget=args.budget)
            pi, locate = _solve(
                tandem_generator(model, start, budget=args.budget),
                args.dump_matrix)
            law = analyze_tandem(model, tables=tables).distribution
        else:
            law = analyze_closed(model, start, budget=args.budget).distribution
            pi, locate = _solve(
                build_generator(successors(model), start, budget=args.budget),
                args.dump_matrix)
        states = list(law)
        positions = locate(states)
        if len(states) != len(pi) or (positions < 0).any():
            raise UsageError("distributions have mismatched supports")
        p, state_of = list(law.values()), states.__getitem__
    tv, residuals = compare_laws(p, pi[positions], state_of)
    payload = {
        "states": len(p),
        "total_variation": _fmt(tv),
        "max_residuals": [
            {"state": key(s), "residual": _fmt(r)} for r, s in residuals
        ],
    }
    return payload, []


@functools.cache  # parsing leaves the parser as it was, so build it once
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="passandswap",
        description="Exact and simulated analysis of pass-and-swap queueing models",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, help_text, *kinds):
        """A subcommand running ``func(args, loaded)`` on model files of
        the given kinds."""
        p = sub.add_parser(name, help=help_text)
        p.add_argument("model", help="model file (JSON)")
        p.add_argument("--format", choices=("table", "json"), default="table")
        p.add_argument("--output", help="write output to this path")
        p.set_defaults(func=func, kinds=kinds)
        return p

    chains = (LoadedOpen, LoadedClosed, LoadedTandem)

    p = add("validate", _cmd_validate, "check the rate-function contract",
            LoadedOpen)
    p.add_argument("--max-total", type=int, default=4)

    add("stability", _cmd_stability, "subset-wise stability test", LoadedOpen)

    p = add("analyze", _cmd_analyze, "truncated stationary distribution",
            LoadedOpen)
    p.add_argument("-N", "--capacity", type=int, required=True)
    p.add_argument("--budget", type=int, default=1_000_000)

    p = add("trace", _cmd_trace, "swap chain of one completion", LoadedOpen)
    p.add_argument("--state", required=True, help="comma-separated classes")
    p.add_argument("--position", type=int, required=True,
                   help="completing position, 1-based")

    p = add("closed-analyze", _cmd_closed_analyze,
            "closed-queue stationary distribution", LoadedClosed)
    p.add_argument("--budget", type=int, default=1_000_000)

    p = add("tandem-analyze", _cmd_tandem_analyze,
            "closed-tandem stationary distribution", LoadedTandem)
    p.add_argument("--budget", type=int, default=1_000_000)

    p = add("classes", _cmd_classes, "communicating class partition",
            LoadedClosed, LoadedTandem)
    p.add_argument("--budget", type=int, default=1_000_000)

    add("iso", _cmd_iso, "duplicate-class splitting summary", LoadedClosed)

    p = add("cluster-compile", _cmd_cluster_compile,
            "compile a cluster spec to a tandem model", LoadedCluster)
    p.add_argument("-o", "--emit", help="also write the tandem model here")

    p = add("cluster-analyze", _cmd_cluster_analyze,
            "compile and analyze a cluster spec", LoadedCluster)
    p.add_argument("--budget", type=int, default=1_000_000)

    p = add("simulate", _cmd_simulate, "discrete-event simulation",
            *chains, LoadedCluster)
    p.add_argument("--events", type=int)
    p.add_argument("--time", type=float)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--reps", type=int, default=10)
    p.add_argument("--warmup", type=float, default=0.2)
    p.add_argument("-N", "--capacity", type=int)
    p.add_argument("--top", type=int, default=50)
    p.add_argument("--trace-log", help="write an event log to this path")

    p = add("oracle-compare", _cmd_oracle_compare,
            "analytic distribution against the generator solve", *chains)
    p.add_argument("-N", "--capacity", type=int)
    p.add_argument("--budget", type=int, default=200_000)
    p.add_argument("--dump-matrix", help="write the generator in triplet form")

    return parser


def _load(args):
    """The model file of ``args``, checked against the command's kinds."""
    loaded = load_path(args.model)
    kind = lambda cls: cls.__name__.removeprefix("Loaded").lower()
    if not isinstance(loaded, args.kinds):
        raise UsageError(
            f"{args.command} takes {'/'.join(map(kind, args.kinds))} model "
            f"files, not {kind(type(loaded))}"
        )
    # Every command with an optional -N runs open models truncated there,
    # and has nothing to truncate on the other kinds.
    capacity = getattr(args, "capacity", None)
    if isinstance(loaded, LoadedOpen):
        if hasattr(args, "capacity") and capacity is None:
            raise UsageError(
                f"{args.command} on an open model needs --capacity"
            )
    elif capacity is not None:
        raise UsageError(f"{args.command} takes --capacity on open models "
                         f"only, not on {kind(type(loaded))} models")
    return loaded


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        payload, warnings = args.func(args, _load(args))
        _emit(_header(args), payload, warnings, args)
    except ResourceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ModelFormatError, UsageError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except PandsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
