"""Command-line interface: ``repro-pipeline`` / ``python -m repro``.

Subcommands
-----------
``examples``
    Reproduce the paper's Section 3 worked examples, printing the claimed
    and measured numbers side by side.
``frontier``
    Trace the exact (latency, FP) Pareto frontier of a random instance.
``solve``
    Run one of the paper's algorithms on a random instance.
``simulate``
    Run a versioned dynamic-platform simulation spec (JSON file with
    ``"kind": "simulation"``, see :mod:`repro.simulation.dynamic`):
    solve → stream a trace through the mapped pipeline → processors
    fail/revive mid-run → re-mapping policy re-solves.  Reports
    realized latency percentiles, realized period/throughput,
    disruption metrics and re-solve counts next to the analytic
    predictions; ``--stream`` prints epoch events as NDJSON while the
    run progresses, ``--json`` dumps the full result.
``batch``
    Solve many random instances (sharded over worker processes with
    deterministic seeding) through the engine's solver registry; JSON or
    table output, or ``--stream`` for per-outcome lines as tasks finish.
    ``--store PATH`` reuses prior solves from a persistent result store
    (``--no-store`` disables, ``--store-max-records`` caps it with LRU
    eviction), ``--retries``/``--timeout``/``--backoff`` set the
    per-task fault policy.  ``--list-solvers`` dumps the registry
    metadata.
``sweep``
    Run a declarative sweep spec (JSON file: instances × solvers ×
    threshold grid, see :mod:`repro.engine.sweeps`) through the unified
    sweep engine — duplicate dedup, ``--warm-start chain`` for
    warm-start chaining — and print each cell's Pareto frontier.
    ``--list-scenarios`` dumps the scenario registry usable in specs.
``replay``
    Deterministic record/replay of solver runs
    (:mod:`repro.engine.recorder` / :mod:`repro.engine.replay`):
    ``replay record`` captures a run of ``--solver`` on a random
    instance into ``--store`` and prints its content-addressed key;
    ``replay run KEY`` re-executes a stored recording and halts at the
    first divergence; ``replay diff KEY1 KEY2`` compares two stored
    recordings event-for-event; ``replay verify`` does
    record → store → reload → replay in one step (the CI smoke test).
    Exit code 0 means the logs matched, 1 means they diverged.
``serve``
    Run the long-lived solve service (:mod:`repro.service`): NDJSON
    over ``--socket`` and/or HTTP over ``--http``, a bounded priority
    queue in front of ``--workers`` threads, one shared
    ``--store`` that every client dedupes against.  SIGTERM/SIGINT
    drain gracefully: in-flight work finishes, new requests are
    rejected with a retriable error.
``submit``
    Submit work to a running service and stream the response events
    (NDJSON, completion order) to stdout: ``--plan`` sends a sweep
    spec, ``--request`` a raw protocol request, ``--ping``/``--stats``
    /``--drain`` the control verbs.  Exit code 75 (``EX_TEMPFAIL``)
    means the rejection is retriable (queue full / draining).
"""

from __future__ import annotations

import argparse
import sys
from typing import Sequence

from . import __version__

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser (exposed for tests)."""
    parser = argparse.ArgumentParser(
        prog="repro-pipeline",
        description=(
            "Reproduction of Benoit, Rehn-Sonigo & Robert (2008): "
            "latency/reliability bi-criteria mapping of pipeline workflows."
        ),
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("examples", help="reproduce the paper's worked examples")

    frontier = sub.add_parser(
        "frontier", help="exact Pareto frontier of a random instance"
    )
    frontier.add_argument("--stages", type=int, default=3)
    frontier.add_argument("--processors", type=int, default=4)
    frontier.add_argument("--seed", type=int, default=0)
    frontier.add_argument(
        "--platform",
        choices=["fully-homogeneous", "comm-homogeneous", "fully-heterogeneous"],
        default="comm-homogeneous",
    )

    solve = sub.add_parser("solve", help="run a paper algorithm")
    solve.add_argument(
        "algorithm",
        choices=["min-fp", "min-latency", "alg1", "alg2", "alg3", "alg4"],
    )
    solve.add_argument("--stages", type=int, default=3)
    solve.add_argument("--processors", type=int, default=4)
    solve.add_argument("--seed", type=int, default=0)
    solve.add_argument(
        "--threshold",
        type=float,
        default=None,
        help="latency threshold (alg1/alg3) or FP threshold (alg2/alg4)",
    )

    simulate = sub.add_parser(
        "simulate",
        help="dynamic-platform simulation: solve → run → fail → re-solve",
    )
    simulate.add_argument(
        "spec",
        help='path to a JSON simulation spec ("kind": "simulation")',
    )
    simulate.add_argument(
        "--policy",
        choices=["none", "resolve-full", "resolve-warm"],
        default=None,
        help="override the spec's re-mapping policy",
    )
    simulate.add_argument(
        "--seed", type=int, default=None, help="override the spec's seed"
    )
    simulate.add_argument(
        "--stream",
        action="store_true",
        help="print epoch events as NDJSON while the run progresses",
    )
    simulate.add_argument(
        "--json", action="store_true", help="print the full result as JSON"
    )

    batch = sub.add_parser(
        "batch", help="solve many instances through the engine registry"
    )
    batch.add_argument(
        "--solver",
        default=None,
        help="registered solver name (see --list-solvers)",
    )
    batch.add_argument(
        "--list-solvers",
        action="store_true",
        help="print the solver registry and exit",
    )
    batch.add_argument("--instances", type=int, default=4)
    batch.add_argument("--stages", type=int, default=3)
    batch.add_argument("--processors", type=int, default=4)
    batch.add_argument("--seed", type=int, default=0)
    batch.add_argument(
        "--platform",
        choices=["fully-homogeneous", "comm-homogeneous", "fully-heterogeneous"],
        default="comm-homogeneous",
    )
    batch.add_argument(
        "--failure-homogeneous",
        action="store_true",
        help="force identical failure probabilities (Algorithms 3-4)",
    )
    batch.add_argument(
        "--threshold",
        type=float,
        default=None,
        help="latency bound (min-fp solvers) or FP bound (min-latency solvers)",
    )
    batch.add_argument(
        "--workers",
        type=int,
        default=None,
        help="process count for the batch executor (default: serial)",
    )
    batch.add_argument(
        "--json", action="store_true", help="machine-readable JSON output"
    )
    batch.add_argument(
        "--stream",
        action="store_true",
        help="print each outcome as it completes instead of a final table",
    )
    batch.add_argument(
        "--store",
        default=None,
        metavar="PATH",
        help="persistent result store (.json file or SQLite database); "
        "repeated runs reuse prior solves",
    )
    batch.add_argument(
        "--no-store",
        action="store_true",
        help="ignore --store and always re-solve",
    )
    batch.add_argument(
        "--store-max-records",
        type=int,
        default=None,
        metavar="N",
        help="cap the result store at N records "
        "(least-recently-used entries are evicted)",
    )
    batch.add_argument(
        "--retries",
        type=int,
        default=0,
        help="retry crashed/timed-out tasks this many times (default: 0)",
    )
    batch.add_argument(
        "--timeout",
        type=float,
        default=None,
        help="per-task wall-clock budget in seconds (default: none)",
    )
    batch.add_argument(
        "--backoff",
        type=float,
        default=0.0,
        help="base retry backoff in seconds, doubled per attempt",
    )

    sweep = sub.add_parser(
        "sweep", help="run a declarative sweep spec through the sweep engine"
    )
    sweep.add_argument(
        "spec",
        nargs="?",
        default=None,
        metavar="SPEC.json",
        help="JSON sweep spec (instances x solvers x threshold grid)",
    )
    sweep.add_argument(
        "--list-scenarios",
        action="store_true",
        help="print the scenario-generator registry and exit",
    )
    sweep.add_argument(
        "--warm-start",
        choices=["off", "chain"],
        default=None,
        help="override the spec's warm_start knob",
    )
    sweep.add_argument(
        "--workers",
        type=int,
        default=None,
        help="process count for non-chained grids (default: serial)",
    )
    sweep.add_argument("--seed", type=int, default=0)
    sweep.add_argument(
        "--store",
        default=None,
        metavar="PATH",
        help="persistent result store (.json file or SQLite database)",
    )
    sweep.add_argument(
        "--no-store",
        action="store_true",
        help="ignore --store and always re-solve",
    )
    sweep.add_argument(
        "--store-max-records",
        type=int,
        default=None,
        metavar="N",
        help="cap the result store at N records "
        "(least-recently-used entries are evicted)",
    )
    sweep.add_argument(
        "--json", action="store_true", help="machine-readable JSON output"
    )
    sweep.add_argument(
        "--stream",
        action="store_true",
        help="print each sweep cell as it completes (completion order; "
        "with --json, one JSON record per line)",
    )

    replay = sub.add_parser(
        "replay", help="deterministic record/replay of solver runs"
    )
    replay.add_argument(
        "action",
        choices=["record", "run", "diff", "verify"],
        help="record a run, replay a stored key, diff two stored keys, "
        "or verify (record + store round-trip + replay) in one step",
    )
    replay.add_argument(
        "keys",
        nargs="*",
        metavar="KEY",
        help="recording key(s): one for 'run', two for 'diff'",
    )
    replay.add_argument(
        "--store",
        default=None,
        metavar="PATH",
        help="recording store (.json file or SQLite database); required "
        "for record/run/diff, optional for verify",
    )
    replay.add_argument(
        "--solver",
        default="local-search-min-fp",
        help="recordable solver to record (default: local-search-min-fp)",
    )
    replay.add_argument("--stages", type=int, default=4)
    replay.add_argument("--processors", type=int, default=3)
    replay.add_argument("--seed", type=int, default=0)
    replay.add_argument(
        "--platform",
        choices=["fully-homogeneous", "comm-homogeneous", "fully-heterogeneous"],
        default="comm-homogeneous",
    )
    replay.add_argument(
        "--threshold",
        type=float,
        default=None,
        help="threshold for the recorded query (default: derived from "
        "the instance's mono-criterion optimum)",
    )
    replay.add_argument(
        "--use-bulk",
        choices=["auto", "on", "off"],
        default="auto",
        help="evaluation path for the recorded run (auto = solver default; "
        "on/off only for solvers with a bulk path)",
    )
    replay.add_argument(
        "--record-cache",
        action="store_true",
        help="record per-lookup evaluation-cache hit/miss events",
    )
    replay.add_argument(
        "--strict",
        action="store_true",
        help="compare every event including diagnostics (same-path replays)",
    )
    replay.add_argument(
        "--window",
        type=int,
        default=3,
        help="context events shown around a divergence (default: 3)",
    )
    replay.add_argument(
        "--json", action="store_true", help="machine-readable JSON output"
    )

    serve = sub.add_parser(
        "serve",
        help="run the long-lived solve service (shared result store)",
    )
    serve.add_argument(
        "--socket",
        default=None,
        metavar="PATH",
        help="Unix socket path for the NDJSON transport",
    )
    serve.add_argument(
        "--http",
        default=None,
        metavar="HOST:PORT",
        help="HTTP endpoint (PORT 0 picks a free port, reported on "
        "the 'serving' status line)",
    )
    serve.add_argument(
        "--store",
        default=None,
        metavar="PATH",
        help="shared result store (.json file or SQLite database); "
        "all clients dedupe against it",
    )
    serve.add_argument(
        "--store-max-records",
        type=int,
        default=None,
        metavar="N",
        help="cap the result store at N records (LRU eviction)",
    )
    serve.add_argument(
        "--workers",
        type=int,
        default=2,
        help="worker threads (= max concurrent requests, default: 2)",
    )
    serve.add_argument(
        "--queue-size",
        type=int,
        default=32,
        help="bound on queued requests; overflow is rejected with a "
        "retriable queue-full error (default: 32)",
    )
    serve.add_argument(
        "--event-buffer",
        type=int,
        default=64,
        help="per-request bound on buffered response events "
        "(default: 64)",
    )
    serve.add_argument(
        "--preload",
        action="append",
        default=None,
        metavar="MODULE",
        help="import MODULE before serving (repeatable; e.g. to "
        "register extra solvers)",
    )

    submit = sub.add_parser(
        "submit",
        help="submit work to a running solve service",
    )
    submit.add_argument(
        "--socket",
        default=None,
        metavar="PATH",
        help="service Unix socket path",
    )
    submit.add_argument(
        "--http",
        default=None,
        metavar="HOST:PORT",
        help="service HTTP endpoint",
    )
    what = submit.add_mutually_exclusive_group(required=True)
    what.add_argument(
        "--plan",
        default=None,
        metavar="FILE",
        help="sweep spec JSON file ('-' reads stdin)",
    )
    what.add_argument(
        "--request",
        default=None,
        metavar="FILE",
        help="raw protocol request JSON file ('-' reads stdin)",
    )
    what.add_argument(
        "--ping", action="store_true", help="liveness probe"
    )
    what.add_argument(
        "--stats", action="store_true", help="print server statistics"
    )
    what.add_argument(
        "--drain",
        action="store_true",
        help="ask the server to drain gracefully",
    )
    submit.add_argument("--seed", type=int, default=None)
    submit.add_argument(
        "--priority",
        type=int,
        default=0,
        help="higher runs earlier (default: 0)",
    )
    submit.add_argument(
        "--retries", type=int, default=None, help="per-task retries"
    )
    submit.add_argument(
        "--timeout",
        type=float,
        default=None,
        help="per-task timeout in seconds",
    )
    submit.add_argument(
        "--backoff",
        type=float,
        default=None,
        help="base retry backoff in seconds",
    )
    submit.add_argument(
        "--connect-timeout",
        type=float,
        default=60.0,
        help="socket timeout in seconds (default: 60)",
    )
    return parser


def _cmd_examples() -> int:
    from .analysis.reporting import format_table
    from .core.metrics import failure_probability, latency
    from .workloads.reference import figure5_instance, figure34_instance

    fig34 = figure34_instance()
    rows = []
    for label, mapping in (
        ("whole pipeline on P1", fig34.single_processor_mappings[0]),
        ("whole pipeline on P2", fig34.single_processor_mappings[1]),
        ("split S1->P1, S2->P2", fig34.split_mapping),
    ):
        rows.append(
            (label, latency(mapping, fig34.application, fig34.platform))
        )
    print("Paper Figure 3/4 (claimed: 105 / 105 / 7)")
    print(format_table(("mapping", "latency"), rows))
    print()

    fig5 = figure5_instance()
    rows = []
    for label, mapping in (
        ("best single interval", fig5.best_single_interval),
        ("slow+fast two intervals", fig5.two_interval_mapping),
    ):
        rows.append(
            (
                label,
                latency(mapping, fig5.application, fig5.platform),
                failure_probability(mapping, fig5.platform),
            )
        )
    print(
        "Paper Figure 5 (claimed: FP 0.64 @ L<=22 single interval; "
        "latency 22, FP<0.2 two intervals)"
    )
    print(format_table(("mapping", "latency", "failure-prob"), rows))
    return 0


def _random_instance(stages: int, processors: int, seed: int, kind: str):
    from .workloads.synthetic import random_application, random_platform

    application = random_application(stages, seed=seed)
    platform = random_platform(processors, kind, seed=seed + 1)
    return application, platform


def _cmd_frontier(args: argparse.Namespace) -> int:
    from .analysis.frontier import exact_frontier
    from .analysis.reporting import format_frontier

    application, platform = _random_instance(
        args.stages, args.processors, args.seed, args.platform
    )
    front = exact_frontier(application, platform)
    print(f"instance: {application}")
    print(f"platform: {platform}")
    print(format_frontier(front))
    return 0


def _cmd_solve(args: argparse.Namespace) -> int:
    from .algorithms.bicriteria import (
        algorithm1_minimize_fp,
        algorithm2_minimize_latency,
        algorithm3_minimize_fp,
        algorithm4_minimize_latency,
    )
    from .algorithms.mono import (
        minimize_failure_probability,
        minimize_latency_general,
    )

    kind = {
        "alg1": "fully-homogeneous",
        "alg2": "fully-homogeneous",
        "alg3": "comm-homogeneous",
        "alg4": "comm-homogeneous",
        "min-fp": "comm-homogeneous",
        "min-latency": "fully-heterogeneous",
    }[args.algorithm]
    application, platform = _random_instance(
        args.stages, args.processors, args.seed, kind
    )
    if kind == "comm-homogeneous" and args.algorithm in ("alg3", "alg4"):
        # Theorem 6 needs homogeneous failures
        platform = platform.with_failure_probabilities(
            [platform.failure_probabilities[0]] * platform.size
        )
    threshold = args.threshold
    if args.algorithm == "min-fp":
        result = minimize_failure_probability(application, platform)
    elif args.algorithm == "min-latency":
        result = minimize_latency_general(application, platform)
    elif args.algorithm == "alg1":
        result = algorithm1_minimize_fp(
            application, platform, threshold if threshold is not None else 1e9
        )
    elif args.algorithm == "alg2":
        result = algorithm2_minimize_latency(
            application, platform, threshold if threshold is not None else 1.0
        )
    elif args.algorithm == "alg3":
        result = algorithm3_minimize_fp(
            application, platform, threshold if threshold is not None else 1e9
        )
    else:
        result = algorithm4_minimize_latency(
            application, platform, threshold if threshold is not None else 1.0
        )
    print(f"instance: {application}")
    print(f"platform: {platform}")
    print(result)
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    import json

    from .api import (
        SimulationResult,
        SimulationSpec,
        iter_simulation,
        load_spec,
        sim_from_spec,
        sim_to_spec,
    )
    from .exceptions import ReproError

    try:
        loaded = load_spec(args.spec)
    except OSError as exc:
        print(f"error: cannot read spec {args.spec!r}: {exc}", file=sys.stderr)
        return 2
    except json.JSONDecodeError as exc:
        print(f"error: spec {args.spec!r} is not JSON: {exc}", file=sys.stderr)
        return 2
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if not isinstance(loaded, SimulationSpec):
        print(
            'error: \'simulate\' needs a spec with "kind": "simulation" '
            "(this looks like a sweep spec; use the 'sweep' command)",
            file=sys.stderr,
        )
        return 2
    spec = loaded
    if args.policy is not None or args.seed is not None:
        wire = sim_to_spec(spec)
        if args.policy is not None:
            wire["policy"] = args.policy
        if args.seed is not None:
            wire["seed"] = args.seed
        try:
            spec = sim_from_spec(wire)
        except ReproError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2

    result: SimulationResult | None = None
    try:
        for event in iter_simulation(spec):
            if isinstance(event, SimulationResult):
                result = event
            elif args.stream:
                print(json.dumps({"epoch": event.to_dict()}), flush=True)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    assert result is not None

    if args.json:
        print(json.dumps(result.to_dict(), indent=2))
        return 0

    def fmt(x: float) -> str:
        import math

        return f"{x:.4f}" if math.isfinite(x) else "-"

    print(f"policy   : {spec.policy}  solver: {spec.solver.name}  seed: {spec.seed}")
    print(
        f"items    : {result.items_total}  "
        f"completed: {result.items_completed}  "
        f"lost: {result.items_lost}  "
        f"disrupted: {result.items_disrupted}"
    )
    print(
        f"latency  : p50 {fmt(result.latency_p50)}  "
        f"p90 {fmt(result.latency_p90)}  "
        f"p99 {fmt(result.latency_p99)}  "
        f"max {fmt(result.latency_max)}  "
        f"(analytic {fmt(result.analytic_latency)})"
    )
    print(
        f"period   : {fmt(result.realized_period)}  "
        f"throughput: {fmt(result.realized_throughput)}  "
        f"(analytic period {fmt(result.analytic_period)})"
    )
    print(
        f"success  : realized {fmt(result.realized_success)}  "
        f"predicted {fmt(result.predicted_success)}"
    )
    print(
        f"re-solves: {result.resolves}  "
        f"failed: {result.resolve_failures}  "
        f"wall: {result.resolve_seconds:.3f}s  "
        f"epochs: {len(result.epochs)}"
    )
    print(f"makespan : {fmt(result.makespan)}  horizon: {fmt(result.horizon)}")
    return 0


def _cmd_batch(args: argparse.Namespace) -> int:
    import json

    from .analysis.reporting import format_table
    from .core.serialization import mapping_to_dict
    from .api import (
        BatchPolicy,
        BatchTask,
        iter_batch,
        open_store,
        run_batch,
        solver_specs,
    )
    from .exceptions import ReproError
    from .workloads.synthetic import random_application, random_platform

    if args.list_solvers:
        records = [
            {
                "name": spec.name,
                "objective": spec.objective.value,
                "kind": "exact" if spec.exact else "heuristic",
                "needs_threshold": spec.needs_threshold,
                "description": spec.description,
            }
            for spec in solver_specs()
        ]
        if args.json:
            print(json.dumps(records, indent=2))
        else:
            print(
                format_table(
                    ("solver", "objective", "kind", "threshold", "description"),
                    [
                        (
                            r["name"],
                            r["objective"],
                            r["kind"],
                            "yes" if r["needs_threshold"] else "no",
                            r["description"],
                        )
                        for r in records
                    ],
                )
            )
        return 0

    if args.solver is None:
        print("error: --solver is required (or use --list-solvers)")
        return 2

    tasks = []
    for i in range(args.instances):
        seed = args.seed + 2 * i
        application = random_application(args.stages, seed=seed)
        platform = random_platform(args.processors, args.platform, seed=seed + 1)
        if args.failure_homogeneous:
            platform = platform.with_failure_probabilities(
                [platform.failure_probabilities[0]] * platform.size
            )
        tasks.append(
            BatchTask(
                solver=args.solver,
                application=application,
                platform=platform,
                threshold=args.threshold,
                tag=f"instance-{i}(seed={seed})",
            )
        )
    if args.stream and args.json:
        # --json promises one parseable array, --stream line-at-a-time
        # delivery; silently ignoring either flag would be worse
        print("error: --stream and --json are mutually exclusive")
        return 2
    try:
        policy = BatchPolicy(
            retries=args.retries, timeout=args.timeout, backoff=args.backoff
        )
        store = None
        if args.store and not args.no_store:
            store = open_store(
                args.store, max_records=args.store_max_records
            )
    except (ReproError, ValueError, OSError) as exc:
        # bad policy values or an unreadable/incompatible store file are
        # usage errors, same as a malformed batch below
        print(f"error: {exc}")
        return 2
    try:
        if args.stream:
            # streaming delivery: one line per outcome, as they finish
            outcomes = []
            for o in iter_batch(
                tasks,
                workers=args.workers,
                seed=args.seed,
                policy=policy,
                store=store,
            ):
                outcomes.append(o)
                status = (
                    f"latency={o.result.latency:.6g} "
                    f"FP={o.result.failure_probability:.6g}"
                    if o.result
                    else f"{o.error_kind.value}: {o.error}"
                )
                cached = " [cached]" if o.cached else ""
                print(f"[{o.index}] {o.tag}: {status}{cached}")
        else:
            outcomes = run_batch(
                tasks,
                workers=args.workers,
                seed=args.seed,
                policy=policy,
                store=store,
            )
    except ReproError as exc:
        # malformed batch (unknown solver, missing threshold): a usage
        # error, not a per-task failure — no traceback at the user
        if store is not None:
            store.close()
        print(f"error: {exc}")
        return 2

    if args.json:
        records = []
        for o in outcomes:
            record: dict[str, object] = {
                "index": o.index,
                "tag": o.tag,
                "solver": o.solver,
                "elapsed": o.elapsed,
                "attempts": o.attempts,
                "cached": o.cached,
            }
            if o.result is not None:
                record.update(
                    latency=o.result.latency,
                    failure_probability=o.result.failure_probability,
                    optimal=o.result.optimal,
                    mapping=mapping_to_dict(o.result.mapping),
                )
            else:
                record["error"] = o.error
                record["error_kind"] = (
                    o.error_kind.value if o.error_kind else None
                )
            records.append(record)
        print(json.dumps(records, indent=2))
    elif not args.stream:
        rows = [
            (
                o.tag,
                f"{o.result.latency:.6g}" if o.result else "-",
                f"{o.result.failure_probability:.6g}" if o.result else "-",
                f"{o.elapsed:.4f}s" + (" (cached)" if o.cached else ""),
                "" if o.result else (o.error or ""),
            )
            for o in outcomes
        ]
        print(
            format_table(
                ("task", "latency", "failure-prob", "time", "error"), rows
            )
        )
    if store is not None:
        stats = store.stats
        print(
            f"store: {stats.hits} hit(s), {stats.misses} miss(es), "
            f"{stats.writes} write(s) ({stats.hit_rate:.0%} hit rate)",
            file=sys.stderr,
        )
        store.close()
    failures = sum(1 for o in outcomes if o.result is None)
    if outcomes and failures == len(outcomes):
        return 1  # every task failed
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    import json

    from .analysis.reporting import format_table
    from .api import ErrorKind, open_store, plan_from_spec, run_sweep
    from .exceptions import ReproError
    from .workloads.scenarios import SCENARIOS, scenario_names

    if args.list_scenarios:
        records = [
            {
                "name": name,
                "description": next(
                    iter((SCENARIOS[name].__doc__ or "").strip().splitlines()),
                    "",
                ),
            }
            for name in scenario_names()
        ]
        if args.json:
            print(json.dumps(records, indent=2))
        else:
            print(
                format_table(
                    ("scenario", "description"),
                    [(r["name"], r["description"]) for r in records],
                )
            )
        return 0

    if args.spec is None:
        print("error: a SPEC.json file is required (or use --list-scenarios)")
        return 2

    try:
        with open(args.spec, encoding="utf-8") as fh:
            spec = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: cannot read sweep spec {args.spec!r}: {exc}")
        return 2
    if not isinstance(spec, dict):
        print(
            f"error: sweep spec {args.spec!r} must be a JSON object, "
            f"got {type(spec).__name__}"
        )
        return 2
    try:
        if args.warm_start is not None:
            spec = {**spec, "warm_start": args.warm_start}
        plan = plan_from_spec(spec)
        store = None
        if args.store and not args.no_store:
            store = open_store(
                args.store, max_records=args.store_max_records
            )
    except (ReproError, ValueError, OSError) as exc:
        print(f"error: {exc}")
        return 2
    def cell_record(cell):
        return {
            "instance": cell.instance_tag,
            "solver": cell.solver,
            "thresholds": list(cell.thresholds),
            "unique_thresholds": cell.unique_thresholds,
            "chained": cell.chained,
            "outcomes": [
                {
                    "threshold": t,
                    "ok": o.ok,
                    "latency": o.result.latency if o.ok else None,
                    "failure_probability": (
                        o.result.failure_probability if o.ok else None
                    ),
                    "cached": o.cached,
                    "error": o.error,
                    "error_kind": (
                        o.error_kind.value if o.error_kind else None
                    ),
                }
                for t, o in zip(cell.thresholds, cell.outcomes)
            ],
            "frontier": [
                {
                    "latency": p.latency,
                    "failure_probability": p.failure_probability,
                }
                for p in cell.frontier(strict=False)
            ],
        }

    def print_cell(cell):
        solved = sum(1 for o in cell.outcomes if o.ok)
        chained = " [chained]" if cell.chained else ""
        print(
            f"{cell.instance_tag} x {cell.solver}: "
            f"{solved}/{len(cell.outcomes)} feasible "
            f"({cell.unique_thresholds} unique point(s)){chained}"
        )
        # a crashed/misconfigured solver must never read as merely
        # "infeasible": print each distinct non-infeasible failure
        errors = {}
        for o in cell.outcomes:
            if o.result is None and o.error_kind is not ErrorKind.INFEASIBLE:
                errors.setdefault(o.error, []).append(o.tag)
        for message, tags in errors.items():
            kind = next(
                o.error_kind.value
                for o in cell.outcomes
                if o.error == message and o.error_kind
            )
            print(
                f"  {kind} at {len(tags)} point(s) "
                f"(first: {tags[0]}): {message}"
            )
        rows = [
            (f"{p.latency:.6g}", f"{p.failure_probability:.6g}")
            for p in cell.frontier(strict=False)
        ]
        print(format_table(("latency", "failure-prob"), rows))
        print()

    run_kwargs = dict(
        workers=args.workers,
        seed=args.seed,
        store=store,
    )
    cells = []
    try:
        if args.stream:
            from .engine.sweeps import iter_sweep

            # completion order: each cell prints the moment it finishes,
            # so long plans show progress instead of a silent wait
            for cell in iter_sweep(plan, in_order=False, **run_kwargs):
                cells.append(cell)
                if args.json:
                    print(json.dumps(cell_record(cell)))
                else:
                    print_cell(cell)
        else:
            result = run_sweep(plan, **run_kwargs)
            cells = list(result.cells)
    except ReproError as exc:
        if store is not None:
            store.close()
        print(f"error: {exc}")
        return 2

    if not args.stream:
        if args.json:
            print(json.dumps([cell_record(c) for c in cells], indent=2))
        else:
            for cell in cells:
                print_cell(cell)
    if store is not None:
        stats = store.stats
        print(
            f"store: {stats.hits} hit(s), {stats.misses} miss(es), "
            f"{stats.writes} write(s), {stats.evictions} eviction(s) "
            f"({stats.hit_rate:.0%} hit rate)",
            file=sys.stderr,
        )
        store.close()
    failures = [
        o
        for cell in cells
        for o in cell.outcomes
        if o.result is None
    ]
    total = sum(len(cell.outcomes) for cell in cells)
    if total and len(failures) == total:
        return 1  # every grid point failed
    if any(
        o.error_kind is not ErrorKind.INFEASIBLE for o in failures
    ):
        return 1  # a solver crashed/misfired somewhere: not a clean sweep
    return 0


def _cmd_replay(args: argparse.Namespace) -> int:
    import inspect
    import json

    from .api import (
        Objective,
        RunRecording,
        diff_runs,
        get_solver,
        open_store,
        record_run,
        replay_run,
    )
    from .engine import DEFAULT_IGNORE, MemoryStore
    from .exceptions import ReproError

    def _report_payload(report):
        payload = {
            "status": report.status.value,
            "events_compared": report.events_compared,
        }
        if report.divergence is not None:
            d = report.divergence
            payload["divergence"] = {
                "index": d.index,
                "kind": d.kind,
                "expected": d.expected,
                "got": d.got,
                "field_diffs": [
                    {"field": f.field, "expected": f.expected, "got": f.got}
                    for f in d.field_diffs
                ],
                "window_expected": list(d.window_expected),
                "window_got": list(d.window_got),
            }
        return payload

    def _print_report(report):
        if args.json:
            print(json.dumps(_report_payload(report), indent=2))
        else:
            print(report.summary())
        return 0 if report.ok else 1

    needed = {"record": 0, "verify": 0, "run": 1, "diff": 2}[args.action]
    if len(args.keys) != needed:
        print(
            f"error: replay {args.action} takes {needed} key argument(s), "
            f"got {len(args.keys)}"
        )
        return 2
    if args.action in ("record", "run", "diff") and not args.store:
        print(f"error: replay {args.action} requires --store")
        return 2

    store = None
    try:
        if args.store:
            store = open_store(args.store)
    except (ReproError, ValueError, OSError) as exc:
        print(f"error: {exc}")
        return 2

    try:
        if args.action in ("run", "diff"):
            recordings = []
            for key in args.keys:
                record = store.get(key)
                if record is None:
                    print(f"error: no recording under key {key!r}")
                    return 2
                recordings.append(RunRecording.from_record(record))
            if args.action == "run":
                report = replay_run(
                    recordings[0], strict=args.strict, window=args.window
                )
            else:
                report = diff_runs(
                    recordings[0],
                    recordings[1],
                    ignore=() if args.strict else DEFAULT_IGNORE,
                    window=args.window,
                )
            return _print_report(report)

        # record / verify: build the instance and capture a fresh run
        spec = get_solver(args.solver)
        application, platform = _random_instance(
            args.stages, args.processors, args.seed, args.platform
        )
        threshold = args.threshold
        if threshold is None:
            # a always-feasible bound derived from the mono-criterion
            # optimum: twice the all-replicas latency for min-FP queries,
            # a generous FP ceiling for min-latency ones
            from .algorithms.mono import minimize_failure_probability

            base = minimize_failure_probability(application, platform)
            if spec.objective is Objective.MIN_FP:
                threshold = 2.0 * base.latency
            else:
                threshold = max(0.9, 2.0 * base.failure_probability)
        opts = {}
        if args.use_bulk != "auto":
            if "use_bulk" not in inspect.signature(spec.func).parameters:
                print(
                    f"error: solver {args.solver!r} has no bulk evaluation "
                    f"path; drop --use-bulk"
                )
                return 2
            opts["use_bulk"] = args.use_bulk == "on"
        if spec.seeded:
            opts["seed"] = args.seed

        if args.action == "record":
            _, recording = record_run(
                args.solver,
                application,
                platform,
                threshold,
                store=store,
                record_cache=args.record_cache,
                **opts,
            )
            key = recording.key()
            if args.json:
                print(
                    json.dumps(
                        {
                            "key": key,
                            "solver": recording.solver,
                            "solver_version": recording.solver_version,
                            "events": len(recording.events),
                            "error": recording.error,
                        },
                        indent=2,
                    )
                )
            else:
                print(f"recorded {len(recording.events)} event(s)")
                print(f"key: {key}")
            return 0

        # verify: record, persist, reload, replay the reloaded copy
        verify_store = store if store is not None else MemoryStore()
        _, recording = record_run(
            args.solver,
            application,
            platform,
            threshold,
            store=verify_store,
            record_cache=args.record_cache,
            **opts,
        )
        reloaded = RunRecording.from_record(verify_store.get(recording.key()))
        report = replay_run(
            reloaded, strict=args.strict, window=args.window
        )
        if not args.json:
            print(
                f"{args.solver}: recorded {len(recording.events)} event(s), "
                f"key {recording.key()}"
            )
        return _print_report(report)
    except ReproError as exc:
        print(f"error: {exc}")
        return 2
    finally:
        if store is not None:
            store.close()


#: exit code for retriable service rejections (sysexits EX_TEMPFAIL)
EX_TEMPFAIL = 75


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio
    import importlib
    import json
    import signal

    from .engine.store import open_store
    from .service.server import SolverService

    if args.socket is None and args.http is None:
        print("error: serve needs --socket PATH and/or --http HOST:PORT")
        return 2
    for module in args.preload or []:
        importlib.import_module(module)
    host: str | None = None
    port: int | None = None
    if args.http is not None:
        host, _, port_text = args.http.rpartition(":")
        try:
            port = int(port_text)
        except ValueError:
            print(f"error: --http expects HOST:PORT, got {args.http!r}")
            return 2
    store = (
        open_store(
            args.store,
            max_records=args.store_max_records,
            threadsafe=True,
        )
        if args.store
        else None
    )

    async def _run() -> None:
        service = SolverService(
            store,
            workers=args.workers,
            queue_size=args.queue_size,
            event_buffer=args.event_buffer,
        )
        await service.start(
            socket_path=args.socket, host=host or None, port=port
        )
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGTERM, signal.SIGINT):
            loop.add_signal_handler(signum, service.drain)
        print(
            json.dumps(
                {
                    "event": "serving",
                    "socket": service.socket_path,
                    "http_port": service.http_port,
                    "store": args.store,
                    "workers": args.workers,
                }
            ),
            flush=True,
        )
        await service.serve_forever()
        print(json.dumps({"event": "drained"}), flush=True)

    try:
        asyncio.run(_run())
    finally:
        if store is not None:
            store.close()
    return 0


def _cmd_submit(args: argparse.Namespace) -> int:
    import json

    from .service.client import ServiceClient
    from .service.protocol import PROTOCOL_VERSION, ServiceError

    if (args.socket is None) == (args.http is None):
        print("error: submit needs exactly one of --socket or --http")
        return 2
    if args.http is not None:
        host, _, port_text = args.http.rpartition(":")
        try:
            client = ServiceClient(
                host=host or None,
                port=int(port_text),
                timeout=args.connect_timeout,
            )
        except ValueError:
            print(f"error: --http expects HOST:PORT, got {args.http!r}")
            return 2
    else:
        client = ServiceClient(
            args.socket, timeout=args.connect_timeout
        )

    def _read_json(path: str) -> object:
        if path == "-":
            return json.load(sys.stdin)
        with open(path, encoding="utf-8") as handle:
            return json.load(handle)

    try:
        if args.ping or args.stats or args.drain:
            verb = "ping" if args.ping else "stats" if args.stats else "drain"
            event = getattr(client, verb)()
            print(json.dumps(event))
            return 0
        if args.request is not None:
            payload = _read_json(args.request)
            if isinstance(payload, dict):
                payload.setdefault("schema", PROTOCOL_VERSION)
        else:
            payload = {
                "schema": PROTOCOL_VERSION,
                "kind": "sweep",
                "plan": _read_json(args.plan),
            }
        if isinstance(payload, dict):
            if args.seed is not None:
                payload["seed"] = args.seed
            if args.priority:
                payload["priority"] = args.priority
            policy = {
                key: value
                for key, value in (
                    ("retries", args.retries),
                    ("timeout", args.timeout),
                    ("backoff", args.backoff),
                )
                if value is not None
            }
            if policy:
                payload["policy"] = policy
        failed = 0
        for event in client.request(payload):
            print(json.dumps(event), flush=True)
            if event.get("event") == "done":
                failed = event.get("failed", 0)
        return 1 if failed else 0
    except ServiceError as exc:
        print(
            json.dumps(
                {
                    "event": "error",
                    "code": exc.code,
                    "retriable": exc.retriable,
                    "message": str(exc),
                }
            ),
            flush=True,
        )
        return EX_TEMPFAIL if exc.retriable else 1
    except (ConnectionRefusedError, FileNotFoundError) as exc:
        print(f"error: cannot reach the service: {exc}")
        return EX_TEMPFAIL
    except OSError as exc:
        print(f"error: {exc}")
        return 1


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "examples":
        return _cmd_examples()
    if args.command == "frontier":
        return _cmd_frontier(args)
    if args.command == "solve":
        return _cmd_solve(args)
    if args.command == "simulate":
        return _cmd_simulate(args)
    if args.command == "batch":
        return _cmd_batch(args)
    if args.command == "sweep":
        return _cmd_sweep(args)
    if args.command == "replay":
        return _cmd_replay(args)
    if args.command == "serve":
        return _cmd_serve(args)
    if args.command == "submit":
        return _cmd_submit(args)
    parser.error(f"unknown command {args.command!r}")  # pragma: no cover
    return 2  # pragma: no cover


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
