"""Command-line interface: ``python -m repro <command>``.

Commands:

- ``assemble <file.s>`` — assemble Thumb source, print a hex listing
  (``-o out.hex``/``out.bin`` writes a loadable firmware image).
- ``disassemble <hex>`` — disassemble halfwords given as hex bytes.
- ``harden <file.c>`` — compile MiniC with GlitchResistor defenses and
  print the instrumentation report plus section sizes.
- ``attack <file.c>`` — harden (or not, with ``--defense none``) and run a
  strided glitch campaign against the ``win`` symbol.
- ``discover <image>`` — load a firmware image (raw or Intel HEX) and list
  every conditional branch site an attacker could glitch.
- ``campaign --image <image>`` — sweep every discovered site under the
  AND/OR/XOR flip models and print the exploitability ranking.
- ``experiment <name>`` — run one paper artifact
  (fig2 | table1 | ... | table7 | search) and print it.
- ``warm-tables`` — decode and persist the shared vector-engine operand
  tables (one build; every later run and worker memmaps them).
- ``serve`` — run the long-lived campaign service (asyncio scheduler
  with dedup, per-client slots, and streaming JSONL feeds); ``serve
  --stop`` asks a running server to drain and exit.
- ``submit`` — submit one campaign to a running server and (by default)
  wait for its tallies; ``--tail`` streams partial tallies as they land.
- ``status`` — print a running server's queue, jobs, and counters.
- ``report <events.jsonl>`` — render the timing/metrics summary of a run
  recorded with ``--trace``/``--metrics-out``.
"""

from __future__ import annotations

import argparse
import sys

from repro.resistor import ResistorConfig


def _config_from_args(args) -> ResistorConfig:
    sensitive = tuple(args.sensitive or ())
    if args.defense == "all":
        return ResistorConfig.all(sensitive=sensitive)
    if args.defense == "all-no-delay":
        return ResistorConfig.all_but_delay(sensitive=sensitive)
    if args.defense == "none":
        return ResistorConfig.none()
    return ResistorConfig.only(args.defense, sensitive=sensitive)


def cmd_assemble(args) -> int:
    from repro.isa import assemble

    with open(args.source) as handle:
        program = assemble(handle.read(), base=int(args.base, 0))
    print(f"; {len(program.code)} bytes at {program.base:#010x}")
    for address, size, text in program.listing:
        raw = program.code[address - program.base:address - program.base + size]
        print(f"{address:#010x}: {raw.hex():<12} {text.strip()}")
    for name, address in sorted(program.symbols.items(), key=lambda kv: kv[1]):
        print(f"; {name} = {address:#010x}")
    if args.output:
        from repro.firmware.image import FirmwareImage, write_image

        write_image(FirmwareImage.from_program(program, source=args.source),
                    args.output)
        print(f"; image written to {args.output}")
    return 0


def _load_cli_image(args):
    from repro.firmware.image import load_image

    base = int(args.base, 0) if args.base is not None else None
    return load_image(args.image, base=base, fmt=args.format)


def cmd_discover(args) -> int:
    from repro.campaign import discover_sites
    from repro.errors import ImageError

    try:
        image = _load_cli_image(args)
        sites = discover_sites(image, strategy=args.strategy)
    except ImageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(f"; {args.image}: {len(image.data)} bytes at {image.base:#010x}, "
          f"entry {image.entry:#010x}")
    print(f"; {len(sites)} conditional branch site(s) ({args.strategy} discovery)")
    for site in sites:
        print(site.describe())
    return 0


def cmd_campaign(args) -> int:
    from repro.campaign import DEFAULT_MODELS, run_image_campaign
    from repro.errors import ImageError

    models = tuple(m.strip() for m in args.models.split(",") if m.strip())
    unknown = [m for m in models if m not in DEFAULT_MODELS]
    if unknown or not models:
        print(f"error: --models must be a comma-separated subset of "
              f"{','.join(DEFAULT_MODELS)}", file=sys.stderr)
        return 1
    try:
        image = _load_cli_image(args)
    except ImageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    obs = _observer_from_args(args, "campaign-image")
    try:
        result = run_image_campaign(
            image, models=models, strategy=args.strategy,
            workers=args.workers, cache=args.cache_dir,
            progress=_progress_reporter(args),
            checkpoint_dir=args.checkpoint_dir, resume=args.resume,
            retries=args.retries, unit_timeout=args.unit_timeout,
            obs=obs, engine=args.engine, tally=args.tally,
        )
    finally:
        _finish_observer(obs, args)
    print(result.render(top=args.top))
    _report_failed_units(result.failed_units)
    return 0


def cmd_disassemble(args) -> int:
    from repro.isa.disassembler import disassemble, format_listing

    data = bytes.fromhex(args.hex_bytes.replace(" ", ""))
    print(format_listing(disassemble(data, base=int(args.base, 0))))
    return 0


def cmd_harden(args) -> int:
    from repro.resistor import harden

    with open(args.source) as handle:
        source = handle.read()
    hardened = harden(source, _config_from_args(args))
    print(hardened.report.render())
    sizes = hardened.sizes
    print(f"\nsections: text={sizes.text} data={sizes.data} bss={sizes.bss} "
          f"(total {sizes.total} bytes)")
    if args.output:
        with open(args.output, "w") as handle:
            handle.write(hardened.compiled.assembly)
        print(f"assembly written to {args.output}")
    return 0


def _progress_reporter(args):
    if getattr(args, "progress", False):
        from repro.exec import console_progress

        return console_progress()
    return None


def _observer_from_args(args, label: str):
    """Build an Observer when --trace/--metrics-out asked for one, else None."""
    trace = getattr(args, "trace", False)
    metrics_out = getattr(args, "metrics_out", None)
    if not trace and metrics_out is None:
        return None
    from repro.obs import JsonlSink, Observer, default_events_path

    path = metrics_out if metrics_out is not None else default_events_path(label)
    return Observer(sink=JsonlSink(path))


def _finish_observer(obs, args) -> None:
    """Close the event log and (with --trace) print the run summary."""
    if obs is None:
        return
    obs.close()
    print(f"event log: {obs.sink.path}", file=sys.stderr)
    if getattr(args, "trace", False):
        from repro.obs import render_report

        print(render_report(obs.events), file=sys.stderr)


def cmd_attack(args) -> int:
    from repro.hw.scan import run_defense_scan
    from repro.resistor import harden

    with open(args.source) as handle:
        source = handle.read()
    config = _config_from_args(args)
    hardened = harden(source, config)
    if "win" not in hardened.image.symbols:
        print("error: the program must define a win() function (the attack goal)",
              file=sys.stderr)
        return 1
    obs = _observer_from_args(args, f"attack-{args.attack}")
    try:
        result = run_defense_scan(
            hardened.image, args.attack,
            scenario=args.source, defense=config.describe(), stride=args.stride,
            fault_model=args.fault_model, profile=args.profile,
            workers=args.workers, progress=_progress_reporter(args),
            checkpoint_dir=args.checkpoint_dir, resume=args.resume,
            retries=args.retries, unit_timeout=args.unit_timeout,
            obs=obs,
        )
    finally:
        _finish_observer(obs, args)
    print(f"attack={args.attack} defense={config.describe()} stride={args.stride}")
    print(f"  attempts:   {result.attempts}")
    print(f"  successes:  {result.successes} ({result.success_rate * 100:.4f}%)")
    print(f"  detections: {result.detections} ({result.detection_rate * 100:.1f}% "
          f"of det+succ)")
    print(f"  resets:     {result.resets}")
    _report_failed_units(result.failed_units)
    return 0


def _report_failed_units(failed_units) -> None:
    if not failed_units:
        return
    print(f"warning: {len(failed_units)} work unit(s) quarantined after "
          f"exhausting retries (tallies exclude them):", file=sys.stderr)
    for unit in failed_units:
        print(f"  {unit.spec!r}: {unit.error} ({unit.attempts} attempts)",
              file=sys.stderr)


def cmd_experiment(args) -> int:
    import repro.experiments as experiments

    name = args.name
    progress = _progress_reporter(args)
    workers = args.workers
    obs = _observer_from_args(args, f"experiment-{name}")
    robust = dict(checkpoint_dir=args.checkpoint_dir, resume=args.resume,
                  retries=args.retries, unit_timeout=args.unit_timeout, obs=obs)
    model = dict(fault_model=args.fault_model, profile=args.profile)
    try:
        if name == "fig2":
            result = experiments.run_figure2(
                workers=workers, cache=args.cache_dir, progress=progress,
                engine=args.engine, tally=args.tally, **robust
            )
        elif name in ("table1", "table2", "table3", "table6"):
            run_table = getattr(experiments, f"run_{name}")
            result = run_table(stride=args.stride, workers=workers,
                               progress=progress, **model, **robust)
        elif name == "table4":
            result = experiments.run_table4()
        elif name == "table5":
            result = experiments.run_table5()
        elif name == "table7":
            result = experiments.run_table7()
        elif name == "search":
            result = experiments.run_search(checkpoint_dir=args.checkpoint_dir,
                                            resume=args.resume, obs=obs,
                                            **model)
        else:  # pragma: no cover - argparse restricts choices
            raise ValueError(name)
    finally:
        _finish_observer(obs, args)
    print(result.render())
    return 0


def cmd_warm_tables(args) -> int:
    from repro.emu.vector import warm_tables

    for path in warm_tables(root=args.cache_dir):
        print(path)
    return 0


def cmd_serve(args) -> int:
    import asyncio

    from repro.service import serve
    from repro.service.client import ServiceClient

    if args.stop:
        try:
            with ServiceClient(host=args.host, port=args.port,
                               connect_timeout=2.0) as client:
                client.shutdown(drain=not args.no_drain)
        except OSError as exc:
            print(f"error: no server at {args.host}:{args.port} ({exc})",
                  file=sys.stderr)
            return 1
        print(f"server at {args.host}:{args.port} shutting down "
              f"({'dropping queue' if args.no_drain else 'draining'})")
        return 0
    obs = _observer_from_args(args, "serve")

    def ready(host: str, port: int) -> None:
        print(f"serving on {host}:{port} (root: {args.root or 'default'})",
              file=sys.stderr)

    try:
        asyncio.run(serve(
            root=args.root, host=args.host, port=args.port,
            job_slots=args.job_slots, client_slots=args.client_slots,
            unit_workers=args.unit_workers,
            cache_max_shards=args.cache_max_shards,
            obs=obs, ready=ready,
        ))
    except KeyboardInterrupt:
        print("interrupted; checkpoints are preserved — restart to resume",
              file=sys.stderr)
    finally:
        if obs is not None and getattr(args, "trace", False):
            from repro.obs import render_report

            print(render_report(obs.events), file=sys.stderr)
    return 0


def _spec_from_args(args) -> dict:
    """Build a submission spec dict from ``repro submit`` flags."""
    spec: dict = {"kind": args.kind, "engine": args.engine, "tally": args.tally}
    if args.kind == "branch":
        spec["model"] = args.model
        if args.conditions:
            spec["conditions"] = [c.strip() for c in args.conditions.split(",")
                                  if c.strip()]
    elif args.kind == "image":
        spec["path"] = args.image
        spec["strategy"] = args.strategy
        spec["format"] = args.format
        if args.base is not None:
            spec["base"] = args.base
        if args.models:
            spec["models"] = [m.strip() for m in args.models.split(",")
                              if m.strip()]
    else:  # experiment
        spec["name"] = args.name
        spec["stride"] = args.stride
        spec["fault_model"] = args.fault_model
        spec["profile"] = args.profile
    if args.k_values:
        spec["k_values"] = [int(k) for k in args.k_values.split(",") if k.strip()]
    if args.zero_invalid:
        spec["zero_is_invalid"] = True
    return spec


def cmd_submit(args) -> int:
    import json

    from repro.service.client import ServiceClient, ServiceError, tail

    try:
        spec = _spec_from_args(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    try:
        with ServiceClient(host=args.host, port=args.port) as client:
            if args.no_wait or args.tail:
                accepted = client.submit(spec, client=args.client,
                                         priority=args.priority, wait=False)
            else:
                result = client.submit(spec, client=args.client,
                                       priority=args.priority, wait=True)
                accepted = result["accepted"]
    except ServiceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: no server at {args.host}:{args.port} ({exc})",
              file=sys.stderr)
        return 1
    print(f"; job {accepted['job']} ({accepted['label']}) "
          f"{'deduped onto in-flight unit' if accepted['deduped'] else accepted['state']}",
          file=sys.stderr)
    print(f"; feed: {accepted['feed']}", file=sys.stderr)
    if args.tail:
        for record in tail(accepted["feed"]):
            print(json.dumps(record))
            if record.get("type") == "error":
                return 1
        return 0
    if args.no_wait:
        return 0
    print(json.dumps(result["tallies"], indent=2, sort_keys=True))
    return 0


def cmd_status(args) -> int:
    import json

    from repro.service.client import ServiceClient

    try:
        with ServiceClient(host=args.host, port=args.port,
                           connect_timeout=2.0) as client:
            status = client.status()
    except OSError as exc:
        print(f"error: no server at {args.host}:{args.port} ({exc})",
              file=sys.stderr)
        return 1
    if args.json:
        print(json.dumps(status, indent=2, sort_keys=True))
        return 0
    counters = status["metrics"]["counters"]
    gauges = status["metrics"]["gauges"]
    print(f"server {args.host}:{args.port} — root {status['root']}")
    print(f"  queued:  {status['queued']}   running: {status['running']} "
          f"(job slots: {status['job_slots']}, "
          f"client slots: {status['client_slots']})")
    print(f"  clients: {', '.join(status['active_clients']) or '-'}")
    for name in sorted(n for n in counters if n.startswith("service.")):
        print(f"  {name}: {counters[name]}")
    for name in sorted(gauges):
        print(f"  {name}: {gauges[name]}")
    if status["jobs"]:
        print("  jobs:")
        for job in status["jobs"]:
            print(f"    {job['fingerprint']}  {job['state']:<8} "
                  f"p{job['priority']}  {job['label']} "
                  f"[{', '.join(job['clients'])}]")
    return 0


def cmd_report(args) -> int:
    from repro.obs import load_events, render_report

    print(render_report(load_events(args.events)))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Glitching Demystified reproduction toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_asm = sub.add_parser("assemble", help="assemble Thumb-16 source")
    p_asm.add_argument("source")
    p_asm.add_argument("--base", default="0x08000000")
    p_asm.add_argument("--output", "-o", default=None, metavar="FILE",
                       help="also write a firmware image (.hex/.ihex → Intel "
                            "HEX, anything else → raw binary) that feeds "
                            "straight into discover/campaign")
    p_asm.set_defaults(func=cmd_assemble)

    p_dis = sub.add_parser("disassemble", help="disassemble hex bytes")
    p_dis.add_argument("hex_bytes")
    p_dis.add_argument("--base", default="0x08000000")
    p_dis.set_defaults(func=cmd_disassemble)

    defense_choices = [
        "all", "all-no-delay", "none",
        "enums", "returns", "branches", "loops", "integrity", "delay",
    ]

    p_hard = sub.add_parser("harden", help="compile MiniC with GlitchResistor")
    p_hard.add_argument("source")
    p_hard.add_argument("--defense", choices=defense_choices, default="all")
    p_hard.add_argument("--sensitive", nargs="*", metavar="GLOBAL")
    p_hard.add_argument("--output", "-o", help="write the generated assembly here")
    p_hard.set_defaults(func=cmd_harden)

    p_attack = sub.add_parser("attack", help="glitch a firmware's win() goal")
    p_attack.add_argument("source")
    p_attack.add_argument("--defense", choices=defense_choices, default="none")
    p_attack.add_argument("--sensitive", nargs="*", metavar="GLOBAL")
    p_attack.add_argument("--attack", choices=["single", "long", "windowed"],
                          default="single")
    p_attack.add_argument("--stride", type=int, default=4)
    _add_fault_model_flags(p_attack)
    p_attack.add_argument("--workers", type=int, default=1,
                          help="worker processes for the scan (0 = all cores)")
    p_attack.add_argument("--progress", action="store_true",
                          help="show attempts/sec, tallies, and ETA on stderr")
    _add_robustness_flags(p_attack)
    _add_observability_flags(p_attack)
    p_attack.set_defaults(func=cmd_attack)

    p_disc = sub.add_parser("discover",
                            help="list every glitchable branch site in an image")
    p_disc.add_argument("image", help="firmware image file (raw or Intel HEX)")
    _add_image_flags(p_disc)
    p_disc.set_defaults(func=cmd_discover)

    p_camp = sub.add_parser(
        "campaign",
        help="sweep every branch site of an image and rank by exploitability",
    )
    p_camp.add_argument("--image", required=True, metavar="FILE",
                        help="firmware image file (raw or Intel HEX) to campaign")
    _add_image_flags(p_camp)
    p_camp.add_argument("--models", default=",".join(("and", "or", "xor")),
                        metavar="LIST",
                        help="comma-separated flip models to sweep "
                             "(subset of and,or,xor; default: all three)")
    p_camp.add_argument("--top", type=int, default=None, metavar="N",
                        help="print only the N most exploitable sites")
    p_camp.add_argument("--engine", choices=["snapshot", "rebuild", "vector"],
                        default="snapshot",
                        help="per-site execution engine (as for experiment fig2)")
    p_camp.add_argument("--tally", choices=["algebra", "enumerate"],
                        default="algebra",
                        help="per-site tallying strategy (as for experiment fig2)")
    p_camp.add_argument("--cache-dir", default=None, metavar="DIR",
                        help="persistent outcome-cache directory; per-site "
                             "shards are shared across models and re-runs")
    p_camp.add_argument("--workers", type=int, default=1,
                        help="worker processes, one site×model sweep per unit "
                             "(0 = all cores)")
    p_camp.add_argument("--progress", action="store_true",
                        help="show attempts/sec, tallies, and ETA on stderr")
    _add_robustness_flags(p_camp)
    _add_observability_flags(p_camp)
    p_camp.set_defaults(func=cmd_campaign)

    p_exp = sub.add_parser("experiment", help="run one paper artifact")
    p_exp.add_argument("name", choices=[
        "fig2", "table1", "table2", "table3", "table4", "table5",
        "table6", "table7", "search",
    ])
    p_exp.add_argument("--stride", type=int, default=4)
    _add_fault_model_flags(p_exp)
    p_exp.add_argument("--workers", type=int, default=1,
                       help="worker processes for campaign/scan experiments "
                            "(0 = all cores; table4/5/7 and search are serial)")
    p_exp.add_argument("--progress", action="store_true",
                       help="show attempts/sec, tallies, and ETA on stderr")
    p_exp.add_argument("--cache-dir", default=None, metavar="DIR",
                       help="persistent outcome-cache directory for fig2 "
                            "(default: no disk cache)")
    p_exp.add_argument("--engine", choices=["snapshot", "rebuild", "vector"],
                       default="snapshot",
                       help="fig2 execution engine: scalar snapshot replay "
                            "(default), per-word world rebuild (oracle), or "
                            "the NumPy lock-step vector backend")
    p_exp.add_argument("--tally", choices=["algebra", "enumerate"],
                       default="algebra",
                       help="fig2 tallying strategy: closed-form mask algebra "
                            "over unique corrupted words (default) or the full "
                            "per-mask enumeration oracle")
    _add_robustness_flags(p_exp)
    _add_observability_flags(p_exp)
    p_exp.set_defaults(func=cmd_experiment)

    p_warm = sub.add_parser(
        "warm-tables",
        help="decode and persist the vector engine's shared operand tables",
    )
    p_warm.add_argument("--cache-dir", default=None, metavar="DIR",
                        help="cache root to write the table artifacts under "
                             "(default: the REPRO_CACHE_DIR / XDG cache root "
                             "every vector run and worker loads from)")
    p_warm.set_defaults(func=cmd_warm_tables)

    p_serve = sub.add_parser(
        "serve",
        help="run the long-lived campaign service (scheduler + socket server)",
    )
    _add_endpoint_flags(p_serve)
    p_serve.add_argument("--root", default=None, metavar="DIR",
                        help="service root for feeds, checkpoints, and the "
                             "shared outcome cache (default: "
                             "<cache root>/service)")
    p_serve.add_argument("--job-slots", type=int, default=2, metavar="N",
                        help="campaigns executing concurrently across all "
                             "clients (default 2)")
    p_serve.add_argument("--client-slots", type=int, default=2, metavar="N",
                        help="queued-or-running jobs one client may own at a "
                             "time; extra submissions wait behind the "
                             "client's own jobs (default 2)")
    p_serve.add_argument("--unit-workers", type=int, default=1, metavar="N",
                        help="worker processes inside each campaign "
                             "(0 = all cores)")
    p_serve.add_argument("--cache-max-shards", type=int, default=64, metavar="N",
                        help="LRU bound on in-memory outcome-cache shards per "
                             "campaign execution (evicted shards flush to "
                             "disk; default 64)")
    p_serve.add_argument("--stop", action="store_true",
                        help="ask the server at --host/--port to shut down "
                             "gracefully (drain, flush feeds/caches) and exit")
    p_serve.add_argument("--no-drain", action="store_true",
                        help="with --stop: fail queued jobs instead of "
                             "finishing them (running jobs still complete; "
                             "checkpoints survive for resubmission)")
    _add_observability_flags(p_serve)
    p_serve.set_defaults(func=cmd_serve)

    p_sub = sub.add_parser(
        "submit", help="submit one campaign to a running repro serve"
    )
    _add_endpoint_flags(p_sub)
    p_sub.add_argument("--kind", choices=["branch", "image", "experiment"],
                       default="branch",
                       help="campaign kind: per-branch sweep, whole-image "
                            "campaign, or a paper experiment")
    p_sub.add_argument("--model", choices=["and", "or", "xor"], default="and",
                       help="flip model for --kind branch")
    p_sub.add_argument("--conditions", default=None, metavar="LIST",
                       help="comma-separated branch conditions for --kind "
                            "branch (eq,ne,...; default: all 14)")
    p_sub.add_argument("--image", default=None, metavar="FILE",
                       help="firmware image for --kind image")
    p_sub.add_argument("--models", default=None, metavar="LIST",
                       help="comma-separated flip models for --kind image "
                            "(default: and,or,xor)")
    p_sub.add_argument("--strategy", choices=["linear", "entry"],
                       default="linear",
                       help="site discovery strategy for --kind image")
    p_sub.add_argument("--format", choices=["auto", "raw", "ihex"],
                       default="auto",
                       help="image format for --kind image")
    p_sub.add_argument("--base", default=None, metavar="ADDR",
                       help="load address for raw images (--kind image)")
    p_sub.add_argument("--name", choices=["fig2", "table1", "table2",
                                          "table3", "table6"],
                       default="table1",
                       help="artifact for --kind experiment")
    p_sub.add_argument("--stride", type=int, default=4,
                       help="scan stride for --kind experiment")
    _add_fault_model_flags(p_sub)
    p_sub.add_argument("--k-values", default=None, metavar="LIST",
                       help="comma-separated flip counts k to sweep "
                            "(branch/image kinds; default: 0..16)")
    p_sub.add_argument("--zero-invalid", action="store_true",
                       help="treat the all-zero word as an invalid encoding "
                            "(the Figure 2c panel decode mode)")
    p_sub.add_argument("--engine", choices=["snapshot", "rebuild", "vector"],
                       default="snapshot",
                       help="execution engine (excluded from the dedup "
                            "fingerprint — engines are bit-identical)")
    p_sub.add_argument("--tally", choices=["algebra", "enumerate"],
                       default="algebra",
                       help="tallying strategy (excluded from the dedup "
                            "fingerprint)")
    p_sub.add_argument("--client", default="cli", metavar="NAME",
                       help="client identity for per-client concurrency "
                            "slots (default: cli)")
    p_sub.add_argument("--priority", type=int, default=0, metavar="N",
                       help="scheduling priority; smaller runs earlier "
                            "(default 0)")
    p_sub.add_argument("--no-wait", action="store_true",
                       help="return after the job is accepted instead of "
                            "waiting for tallies (tail the feed instead)")
    p_sub.add_argument("--tail", action="store_true",
                       help="stream the job's JSONL feed (partial tallies "
                            "per completed unit) until the final result")
    p_sub.set_defaults(func=cmd_submit)

    p_stat = sub.add_parser(
        "status", help="print a running server's queue, jobs, and counters"
    )
    _add_endpoint_flags(p_stat)
    p_stat.add_argument("--json", action="store_true",
                        help="print the raw status record as JSON")
    p_stat.set_defaults(func=cmd_status)

    p_report = sub.add_parser(
        "report", help="summarise a --trace/--metrics-out JSONL event log"
    )
    p_report.add_argument("events", help="path to the JSONL event log")
    p_report.set_defaults(func=cmd_report)

    return parser


def _add_endpoint_flags(parser: argparse.ArgumentParser) -> None:
    from repro.service.server import DEFAULT_HOST, DEFAULT_PORT

    parser.add_argument("--host", default=DEFAULT_HOST,
                        help=f"service bind/connect address "
                             f"(default {DEFAULT_HOST})")
    parser.add_argument("--port", type=int, default=DEFAULT_PORT,
                        help=f"service TCP port (default {DEFAULT_PORT}; "
                             f"0 = ephemeral for serve)")


def _add_image_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--format", choices=["auto", "raw", "ihex"],
                        default="auto",
                        help="image format (auto sniffs .hex/.ihex/.ihx "
                             "suffixes as Intel HEX, anything else as raw)")
    parser.add_argument("--base", default=None, metavar="ADDR",
                        help="load address for raw images "
                             "(default 0x08000000; Intel HEX carries its own)")
    parser.add_argument("--strategy", choices=["linear", "entry"],
                        default="linear",
                        help="site discovery: linear sweep of the whole image "
                             "(default) or reachable-code walk from the entry "
                             "point (skips literal pools)")


def _add_fault_model_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--fault-model",
                        choices=["clock", "voltage", "em", "skip", "replay"],
                        default=None,
                        help="injection phenomenology for hw-scan campaigns "
                             "(repro.hw.models registry; default: the paper's "
                             "clock-glitch model)")
    parser.add_argument("--profile", default=None, metavar="NAME",
                        help="named calibration profile (seed/amplitude/band "
                             "bundle) from repro.hw.models.PROFILES, e.g. "
                             "em-probe-4mm; implies its fault model")


def _add_robustness_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--checkpoint-dir", default=None, metavar="DIR",
                        help="write per-unit JSONL checkpoints here "
                             "(default with --resume: <cache root>/checkpoints)")
    parser.add_argument("--resume", action="store_true",
                        help="resume from an existing checkpoint, replaying "
                             "completed work units instead of re-running them")
    parser.add_argument("--retries", type=int, default=0,
                        help="extra attempts for a failing work unit before it "
                             "is quarantined into the failed-units report")
    parser.add_argument("--unit-timeout", type=float, default=None, metavar="SEC",
                        help="wall-clock bound per work unit on the "
                             "multiprocessing path (hung workers are rebuilt)")


def _add_observability_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--trace", action="store_true",
                        help="record spans/counters/events and print a timing "
                             "report to stderr when the run finishes")
    parser.add_argument("--metrics-out", default=None, metavar="PATH",
                        help="write the JSONL event log here (implies "
                             "recording; default with --trace: "
                             "<cache root>/runs/<label>-<timestamp>.jsonl)")


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
