"""Command-line interface: regenerate the paper's tables and figures,
run the unified benchmark harness, and run the simulation service.

Usage::

    python -m repro list
    python -m repro table 3.3
    python -m repro figure 3.14
    python -m repro all
    python -m repro bench --quick
    python -m repro bench cfm interleaved --out results/
    python -m repro serve --port 7341 --shards 4
    python -m repro serve --stdio < requests.jsonl

Analytic artifacts print instantly; simulated ones (figures 2.1, 3.13,
3.14 measured points, 4.1, 5.5) run their slot-accurate simulations first.
``bench`` writes one machine-readable ``BENCH_<name>.json`` per benchmark
(see :mod:`repro.obs.bench` for the schema).  ``serve`` runs the sharded
async simulation service (:mod:`repro.serve`): JSONL requests in, streamed
responses out, with persistent per-shard workers and bounded in-flight
depth.

Unknown table/figure/bench IDs exit with status 2 and the list of valid
IDs on stderr — never a traceback.
"""

from __future__ import annotations

import argparse
import sys
from typing import Callable, Dict

from repro.fastpath.engine import ENGINES
from repro.report import emit_series, emit_table


# --------------------------------------------------------------------------
# Tables


def table_3_1() -> None:
    """Regenerate Table 3.1 (address path connections)."""
    from repro.core.switch import address_path_table

    table = address_path_table(4, 2)
    rows = []
    for t, row in enumerate(table):
        cells = [f"P{row[b]}" if b in row else "" for b in range(8)]
        rows.append([f"Slot {t}"] + cells)
    emit_table("Table 3.1: address path connections (4 procs, c=2)",
               ["slot"] + [f"B{b}" for b in range(8)], rows)


def table_3_3() -> None:
    """Regenerate Table 3.3 (configuration tradeoff)."""
    from repro.core.config import tradeoff_table

    rows = tradeoff_table(256, 2)
    emit_table(
        "Table 3.3: CFM configuration tradeoff (l=256, c=2)",
        ["banks", "word width", "memory latency", "processors"],
        [(r.n_banks, r.word_width, r.memory_latency, r.n_procs) for r in rows],
    )


def table_3_4() -> None:
    """Regenerate Table 3.4 (synchronous omega switch states)."""
    from repro.network.synchronous import SynchronousOmegaNetwork

    table = SynchronousOmegaNetwork(8).state_table()
    rows = [
        [f"Slot {t}"] + [" ".join(map(str, col)) for col in cols]
        for t, cols in enumerate(table)
    ]
    emit_table(
        "Table 3.4: 8x8 synchronous omega switch states "
        "(0=straight, 1=interchange)",
        ["slot", "column 0", "column 1", "column 2"],
        rows,
    )


def table_3_5() -> None:
    """Regenerate Table 3.5 (64-bank configurations)."""
    from repro.network.partial import configuration_table

    rows = configuration_table(64)
    emit_table(
        "Table 3.5: 64-bank multiprocessor configurations",
        ["modules", "banks/module", "block (words)", "circuit cols",
         "clock cols", "remark"],
        [(r.n_modules, r.banks_per_module, r.block_words, r.circuit_columns,
          r.clock_columns, r.remark) for r in rows],
    )


def table_5_1() -> None:
    """Regenerate Table 5.1 (cache events and actions)."""
    from repro.cache.state import table_5_1_rows

    rows = table_5_1_rows()
    emit_table(
        "Table 5.1: cache events, states and actions",
        ["event", "local", "remote", "final", "action"],
        [(ev.value, loc.value, rem.value, act.final_local_state.value,
          act.describe()) for ev, loc, rem, act in rows],
    )


def table_5_3() -> None:
    """Regenerate Table 5.3 (legal L1/L2 state combinations)."""
    from repro.cache.state import CacheLineState as S
    from repro.hierarchy.hierarchical import legal_state_combination

    rows = []
    for l1 in S:
        allowed = sorted(
            l2.value for l2 in S if legal_state_combination(l1, l2)
        )
        rows.append([l1.value, " ".join(allowed)])
    emit_table(
        "Table 5.3: legal (L1, L2) cache-line state combinations",
        ["first-level line", "allowed second-level lines"],
        rows,
    )


def table_5_4() -> None:
    """Regenerate Table 5.4 (network-controller priorities)."""
    from repro.hierarchy.controller import EventType

    emit_table(
        "Table 5.4: event priority in a network controller",
        ["priority", "request"],
        [(k.priority, k.name.lower().replace("_", " "))
         for k in sorted(EventType, key=lambda e: e.priority)],
    )


def table_5_5() -> None:
    """Regenerate Table 5.5 (CFM vs DASH read latency)."""
    from repro.hierarchy.latency import table_5_5 as t55

    emit_table(
        "Table 5.5: read latency, CFM vs DASH (cycles)",
        ["read access", "CFM", "DASH"],
        t55(),
    )


def table_5_6() -> None:
    """Regenerate Table 5.6 (CFM vs KSR1 read latency)."""
    from repro.hierarchy.latency import table_5_6 as t56

    emit_table(
        "Table 5.6: read latency, CFM vs KSR1 (cycles)",
        ["read access", "CFM", "KSR1"],
        t56(),
    )


# --------------------------------------------------------------------------
# Figures


def figure_2_1() -> None:
    """Regenerate Fig 2.1 (hot-spot tree saturation), simulated."""
    from repro.memory.hotspot import tree_saturation_sweep

    results = tree_saturation_sweep(n_ports=16, rate=0.5, cycles=4000, seed=0)
    emit_table(
        "Fig 2.1: hot-spot tree saturation (buffered MIN)",
        ["hot fraction", "cold latency", "saturated buffers",
         "blocked injections"],
        [(f"{h:.2f}", f"{rep.mean_latency_cold:.1f}", rep.saturated_buffers,
          rep.blocked_injections) for h, rep in results],
    )


def figure_3_13() -> None:
    """Regenerate Fig 3.13 (efficiency, n=8, m=8)."""
    from repro.analysis.efficiency import fig_3_13_data

    data = fig_3_13_data()
    emit_series("Fig 3.13: efficiency (n=8, m=8, beta=17)",
                "rate", data["rate"],
                {k: v for k, v in data.items() if k != "rate"})


def figure_3_14() -> None:
    """Regenerate Fig 3.14 (partially conflict-free efficiency)."""
    from repro.analysis.efficiency import fig_3_14_data

    data = fig_3_14_data()
    emit_series("Fig 3.14: efficiency (n=64, m=8, beta=17)",
                "rate", data["rate"],
                {k: v for k, v in data.items() if k != "rate"})


def figure_3_15() -> None:
    """Regenerate Fig 3.15 (the 128-processor variant)."""
    from repro.analysis.efficiency import fig_3_15_data

    data = fig_3_15_data()
    emit_series("Fig 3.15: efficiency (n=128, m=16, beta=17)",
                "rate", data["rate"],
                {k: v for k, v in data.items() if k != "rate"})


def figure_4_1() -> None:
    """Regenerate Fig 4.1 (write-interleaving corruption), simulated."""
    from repro.core import AccessKind, CFMConfig, CFMemory
    from repro.core.block import Block

    mem = CFMemory(CFMConfig(n_procs=4))
    mem.issue(0, AccessKind.WRITE, 0, data=Block.of_values([1, 2, 3, 4]),
              version="P0")
    mem.issue(1, AccessKind.WRITE, 0, data=Block.of_values([10, 20, 30, 40]),
              version="P1")
    mem.drain()
    blk = mem.peek_block(0)
    emit_table(
        "Fig 4.1: data inconsistency without access control",
        ["bank", "value", "written by"],
        [(k, w.value, w.version) for k, w in enumerate(blk.words)],
    )


def figure_5_5() -> None:
    """Regenerate Fig 5.5 (atomic multiple lock/unlock), simulated."""
    from repro.cache.protocol import CacheSystem
    from repro.cache.sync_ops import multiple_clear, multiple_test_and_set
    from repro.core.block import Block

    sys_ = CacheSystem(8)
    sys_.mem.poke_block(0, Block.of_values([0, 1, 0, 1, 0, 1, 1, 0]))
    rows = [("initial", "-", "01010110")]

    def bits():
        return "".join(
            "1" if w.value else "0" for w in sys_.mem.peek_block(0).words
        )

    m1 = multiple_test_and_set(sys_, 0, 0, [1, 0, 1, 0, 0, 0, 0, 1])
    sys_.run_until(lambda: m1.done)
    rows.append(("lock 10100001", "granted" if not m1.failed else "denied",
                 bits()))
    m2 = multiple_test_and_set(sys_, 1, 0, [0, 0, 0, 0, 1, 0, 0, 1])
    sys_.run_until(lambda: m2.done)
    rows.append(("lock 00001001", "granted" if not m2.failed else "denied",
                 bits()))
    u = multiple_clear(sys_, 0, 0, [1, 0, 1, 0, 0, 0, 0, 1])
    sys_.run_until(lambda: u.done)
    rows.append(("unlock 10100001", "released", bits()))
    emit_table("Fig 5.5: atomic multiple lock/unlock",
               ["operation", "outcome", "target block"], rows)


def verify() -> int:
    """Check every deterministic artifact against the paper's values.

    Returns the number of mismatches (0 = full reproduction)."""
    checks = []

    from repro.core.config import tradeoff_table

    got = [(r.n_banks, r.word_width, r.memory_latency, r.n_procs)
           for r in tradeoff_table(256, 2)][:6]
    checks.append(("Table 3.3", got == [
        (256, 1, 257, 128), (128, 2, 129, 64), (64, 4, 65, 32),
        (32, 8, 33, 16), (16, 16, 17, 8), (8, 32, 9, 4)]))

    from repro.core.switch import address_path_table

    t31 = address_path_table(4, 2)
    checks.append(("Table 3.1", t31[0] == {0: 0, 2: 1, 4: 2, 6: 3}
                   and t31[2] == {2: 0, 4: 1, 6: 2, 0: 3}))

    from repro.network.synchronous import SynchronousOmegaNetwork

    table = SynchronousOmegaNetwork(8).state_table()
    checks.append(("Table 3.4", table[1] == [[0, 0, 0, 1], [0, 0, 1, 1],
                                             [1, 1, 1, 1]]
                   and table[0] == [[0] * 4] * 3))

    from repro.network.partial import configuration_table

    rows = configuration_table(64)
    checks.append(("Table 3.5", rows[0].remark == "CFM"
                   and rows[-1].remark == "Conventional"
                   and [r.n_modules for r in rows] == [1, 2, 4, 8, 16, 32, 64]))

    from repro.cache.state import table_5_1_rows

    # (event, local + remote + final state, action), the paper's rows.
    none, rd, ri = "no memory access", "read", "read-invalidate"
    wb = " (trigger remote write-back)"
    checks.append(("Table 5.1", [
        (ev.value, loc.value + rem.value + act.final_local_state.value,
         act.describe()) for ev, loc, rem, act in table_5_1_rows()] == [
        ("read_hit", "vvv", none), ("read_hit", "viv", none),
        ("read_hit", "did", none), ("read_miss", "ivv", rd),
        ("read_miss", "iiv", rd), ("read_miss", "idv", rd + wb),
        ("write_hit", "vvd", ri), ("write_hit", "vid", ri),
        ("write_hit", "did", none), ("write_miss", "ivd", ri),
        ("write_miss", "iid", ri), ("write_miss", "idd", ri + wb)]))

    from repro.hierarchy.latency import table_5_5 as t55, table_5_6 as t56

    checks.append(("Table 5.5",
                   [c for _n, c, _d in t55()] == [9, 27, 63]
                   and [d for _n, _c, d in t55()] == [29, 100, 130]))
    checks.append(("Table 5.6",
                   [c for _n, c, _k in t56()] == [65, 195]
                   and [k for _n, _c, k in t56()] == [175, 600]))

    from repro.core import AccessKind, CFMConfig, CFMemory
    from repro.core.block import Block

    mem = CFMemory(CFMConfig(n_procs=4))
    mem.issue(0, AccessKind.WRITE, 0, data=Block.of_values([1] * 4),
              version="P0")
    mem.issue(1, AccessKind.WRITE, 0, data=Block.of_values([2] * 4),
              version="P1")
    mem.drain()
    checks.append(("Fig 4.1", mem.peek_block(0).versions
                   == ["P1", "P0", "P0", "P0"]))

    from repro.cache.protocol import CacheSystem
    from repro.cache.sync_ops import multiple_test_and_set

    sys_ = CacheSystem(8)
    sys_.mem.poke_block(0, Block.of_values([0, 1, 0, 1, 0, 1, 1, 0]))
    m1 = multiple_test_and_set(sys_, 0, 0, [1, 0, 1, 0, 0, 0, 0, 1])
    sys_.run_until(lambda: m1.done)
    checks.append(("Fig 5.5", m1.failed is False
                   and m1.new_bits == [1, 1, 1, 1, 0, 1, 1, 1]))

    failures = 0
    for name, ok in checks:
        print(f"{'PASS' if ok else 'FAIL'}  {name}")
        failures += 0 if ok else 1
    print(f"\n{len(checks) - failures}/{len(checks)} deterministic "
          "artifacts match the paper")
    return failures


TABLES: Dict[str, Callable[[], None]] = {
    "3.1": table_3_1,
    "3.3": table_3_3,
    "3.4": table_3_4,
    "3.5": table_3_5,
    "5.1": table_5_1,
    "5.3": table_5_3,
    "5.4": table_5_4,
    "5.5": table_5_5,
    "5.6": table_5_6,
}

FIGURES: Dict[str, Callable[[], None]] = {
    "2.1": figure_2_1,
    "3.13": figure_3_13,
    "3.14": figure_3_14,
    "3.15": figure_3_15,
    "4.1": figure_4_1,
    "5.5": figure_5_5,
}


def _fail_unknown(kind: str, bad_id: str, valid) -> int:
    """Uniform unknown-ID error path: message to stderr, exit status 2."""
    print(f"error: unknown {kind} id {bad_id!r} "
          f"(valid: {' '.join(sorted(valid))})", file=sys.stderr)
    return 2


def _cmd_bench(args) -> int:
    from repro.fastpath.parallel import sweep
    from repro.obs.bench import (
        BENCHMARKS, benchmark_specs, pin_specs, write_document,
    )

    if args.list_benches:
        print("benchmarks:", " ".join(sorted(BENCHMARKS)))
        return 0
    names = args.names or (["quick"] if args.quick else sorted(BENCHMARKS))
    unknown = [n for n in names if n not in BENCHMARKS]
    if unknown:
        return _fail_unknown("bench", unknown[0], BENCHMARKS)
    status = 0
    for name in names:
        specs = pin_specs(benchmark_specs(name, quick=args.quick),
                          engine=args.engine)
        doc = sweep(
            specs, jobs=args.parallel, name=name,
            quick=args.quick or name == "quick", timing=False,
        )
        path = write_document(doc, name, out_dir=args.out)
        print(f"wrote {path}")
        # Partial failure: the document (with every surviving run) is
        # already on disk; name the failed specs on stderr and exit 1.
        for failure in doc.get("failures", []):
            spec = failure.get("spec", {})
            first_line = str(failure.get("error", "")).splitlines()[0]
            print(
                f"error: bench spec failed: {spec.get('system')} "
                f"{spec.get('params')}: {first_line}",
                file=sys.stderr,
            )
            status = 1
    return status


def _cmd_serve(args) -> int:
    import asyncio
    import json as _json
    import signal

    from repro.serve.service import SimulationService

    async def _shutdown(service) -> None:
        """Drain in-flight work, flush final metrics, close pools cleanly."""
        print("shutting down: draining in-flight requests",
              file=sys.stderr, flush=True)
        await service.drain()
        await service.close_connections()
        print("final metrics: "
              + _json.dumps(service.metrics_snapshot(), sort_keys=True),
              file=sys.stderr, flush=True)
        service.pool.close()

    async def _run() -> int:
        service = SimulationService(
            n_shards=args.shards, max_inflight=args.depth,
            max_batch=args.max_batch, cache_size=args.cache_size,
        )
        clean = False
        try:
            if args.stdio:
                print(f"serving JSONL on stdio (shards={args.shards}, "
                      f"depth={args.depth}, max_batch={args.max_batch}, "
                      f"cache={args.cache_size})", file=sys.stderr, flush=True)
                served = await service.serve_stdio()
                print(f"served {served} request(s)", file=sys.stderr,
                      flush=True)
                service.pool.close()
                clean = True
                return 0
            stop = asyncio.Event()
            loop = asyncio.get_running_loop()
            for sig in (signal.SIGTERM, signal.SIGINT):
                try:
                    loop.add_signal_handler(sig, stop.set)
                except NotImplementedError:  # non-Unix event loop
                    pass
            server = await service.start(args.host, args.port)
            host, port = server.sockets[0].getsockname()[:2]
            print(f"serving JSONL+HTTP on {host}:{port} "
                  f"(shards={args.shards}, depth={args.depth}, "
                  f"max_batch={args.max_batch}, cache={args.cache_size})",
                  file=sys.stderr, flush=True)
            await stop.wait()
            # Graceful: stop accepting, drain, flush metrics, close pools.
            server.close()
            await server.wait_closed()
            await _shutdown(service)
            clean = True
            return 0
        finally:
            if not clean:
                service.pool.terminate()

    try:
        return asyncio.run(_run())
    except KeyboardInterrupt:
        print("interrupted; shutting down", file=sys.stderr)
        return 0


def main(argv=None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Regenerate tables and figures of 'A Conflict-Free "
        "Memory Design for Multiprocessors'.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("list", help="list available tables, figures, benchmarks")
    p_table = sub.add_parser("table", help="regenerate a table")
    p_table.add_argument("id", metavar="id", help="table id (see 'list')")
    p_fig = sub.add_parser("figure", help="regenerate a figure")
    p_fig.add_argument("id", metavar="id", help="figure id (see 'list')")
    sub.add_parser("all", help="regenerate everything")
    sub.add_parser(
        "verify",
        help="check every deterministic artifact against the paper",
    )
    p_bench = sub.add_parser(
        "bench",
        help="run registered benchmarks, write BENCH_<name>.json each",
    )
    p_bench.add_argument(
        "names", nargs="*", metavar="name",
        help="benchmark names (default: 'quick' with --quick, else all)",
    )
    p_bench.add_argument(
        "--quick", action="store_true",
        help="scaled-down runs (CI smoke)",
    )
    p_bench.add_argument(
        "--list", action="store_true", dest="list_benches",
        help="list registered benchmarks and exit",
    )
    p_bench.add_argument(
        "--out", default=".", metavar="DIR",
        help="output directory for BENCH_*.json (default: cwd)",
    )
    p_bench.add_argument(
        "--parallel", type=int, default=1, metavar="N",
        help="fan runs across N worker processes (results identical to "
        "serial; default: 1)",
    )
    p_bench.add_argument(
        "--engine", choices=ENGINES, default=None, metavar="ENGINE",
        help="engine strategy for runs that sit behind the engine seam "
        "(cfm/cache/hierarchy): reference (per-slot tick) or batch; "
        "vectorized and stacked are aliases of batch (stacked is "
        "cfm-only; other layers keep their defaults); results are "
        "bit-identical across engines",
    )
    p_serve = sub.add_parser(
        "serve",
        help="run the sharded async simulation service "
        "(JSONL over TCP/stdio + minimal HTTP)",
    )
    p_serve.add_argument(
        "--host", default="127.0.0.1", help="bind address (default: %(default)s)",
    )
    p_serve.add_argument(
        "--port", type=int, default=7341,
        help="TCP port; 0 picks a free one (default: %(default)s)",
    )
    p_serve.add_argument(
        "--shards", type=int, default=2, metavar="N",
        help="worker shards — one persistent process each, requests "
        "routed by machine shape (default: %(default)s)",
    )
    p_serve.add_argument(
        "--depth", type=int, default=32, metavar="M",
        help="max in-flight requests before the reader applies "
        "backpressure (default: %(default)s)",
    )
    p_serve.add_argument(
        "--max-batch", type=int, default=8, metavar="K",
        help="micro-batch size cap: up to K same-shape requests coalesce "
        "into one worker task; 1 dispatches per-request (default: "
        "%(default)s)",
    )
    p_serve.add_argument(
        "--cache-size", type=int, default=1024, metavar="E",
        help="result-cache entries: completed reports served again "
        "without a worker round-trip; 0 disables caching (default: "
        "%(default)s)",
    )
    p_serve.add_argument(
        "--stdio", action="store_true",
        help="serve JSONL over stdin/stdout instead of TCP (exit on EOF)",
    )
    args = parser.parse_args(argv)

    if args.command == "list":
        from repro.obs.bench import BENCHMARKS

        print("tables: ", " ".join(sorted(TABLES)))
        print("figures:", " ".join(sorted(FIGURES)))
        print("benchmarks:", " ".join(sorted(BENCHMARKS)))
        return 0
    if args.command == "table":
        if args.id not in TABLES:
            return _fail_unknown("table", args.id, TABLES)
        TABLES[args.id]()
        return 0
    if args.command == "figure":
        if args.id not in FIGURES:
            return _fail_unknown("figure", args.id, FIGURES)
        FIGURES[args.id]()
        return 0
    if args.command == "verify":
        return verify()
    if args.command == "bench":
        return _cmd_bench(args)
    if args.command == "serve":
        return _cmd_serve(args)
    for tid in sorted(TABLES):
        TABLES[tid]()
    for fid in sorted(FIGURES):
        FIGURES[fid]()
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
