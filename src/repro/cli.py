"""Command-line interface: ``repro-omg <command>``.

Commands::

    info        platform + pretrained-model summary
    table1      regenerate Table I (accuracy/runtime with and without OMG)
    protocol    run the full Fig. 2 protocol and print the transcript
    attack      run the adversary battery against a live deployment
    recognize   deploy OMG and recognize one synthetic utterance
    train       train a zoo architecture and report its trade-off numbers
    analyze     run the static invariant checkers over the source tree
    trace       run a traced provision→serve pass and export telemetry
    chaos       run seeded fault-injection schedules (device/serve/fleet)

Every command runs entirely offline on the simulated HiKey 960.
"""

from __future__ import annotations

import argparse
import sys

__all__ = ["build_parser", "main"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-omg",
        description="Offline Model Guard (DATE 2020) reproduction CLI")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("info", help="platform and model summary")

    table1 = sub.add_parser("table1", help="regenerate Table I")
    table1.add_argument("--per-class", type=int, default=10,
                        help="test clips per keyword (paper: 10)")

    sub.add_parser("protocol", help="run and print the Fig. 2 protocol")

    sub.add_parser("attack", help="run the adversary battery")

    recognize = sub.add_parser("recognize",
                               help="recognize one synthetic utterance")
    recognize.add_argument("word", help="keyword to synthesize and speak")
    recognize.add_argument("--index", type=int, default=0,
                           help="utterance variant index")
    recognize.add_argument("--speaker", default=None,
                           help="optional fixed speaker identity")

    train = sub.add_parser("train", help="train a zoo architecture")
    train.add_argument("--arch", default="tiny_conv",
                       help="architecture name (see repro.train.zoo.ZOO)")
    train.add_argument("--epochs", type=int, default=10)
    train.add_argument("--per-class", type=int, default=60)

    export = sub.add_parser("export",
                            help="write all reproduced results as JSON")
    export.add_argument("output", help="path of the JSON file to write")
    export.add_argument("--per-class", type=int, default=10)

    wavs = sub.add_parser("export-dataset",
                          help="write synthetic utterances as .wav files")
    wavs.add_argument("directory", help="output directory")
    wavs.add_argument("--per-class", type=int, default=2)

    analyze = sub.add_parser(
        "analyze",
        help="run the static invariant checkers (secret-taint, consttime, "
             "layering, determinism, zeroization)")
    analyze.add_argument("paths", nargs="*",
                         help="files or directories (default: the "
                              "installed repro package)")
    analyze.add_argument("--json", action="store_true",
                         help="machine-readable JSON report")
    analyze.add_argument("--format", dest="format", default=None,
                         choices=("human", "json", "sarif"),
                         help="report format (--json is shorthand for "
                              "--format json)")
    analyze.add_argument("--rule", action="append", metavar="NAME",
                         help="run only this rule (repeatable)")

    trace = sub.add_parser(
        "trace",
        help="run a traced provision→serve pass and export the "
             "virtual-clock telemetry")
    trace.add_argument("--requests", type=int, default=12,
                       help="requests to serve")
    trace.add_argument("--batch", type=int, default=4,
                       help="scheduler max batch size")
    trace.add_argument("--workers", type=int, default=2,
                       help="enclave workers in the pool")
    trace.add_argument("--sessions", type=int, default=2,
                       help="concurrent client sessions")
    trace.add_argument("--seed", type=int, default=7,
                       help="seed for the synthetic request traffic")
    trace.add_argument("--op-profile", action="store_true",
                       help="record a span per interpreter op")
    trace.add_argument("--out", default=None, metavar="PATH",
                       help="write Chrome-trace JSON (chrome://tracing)")
    trace.add_argument("--prom", default=None, metavar="PATH",
                       help="write a Prometheus text-format snapshot")

    chaos = sub.add_parser(
        "chaos",
        help="run seeded fault-injection schedules and write per-seed "
             "transcripts")
    chaos.add_argument("--layer", choices=("device", "serve", "fleet"),
                       default="device",
                       help="device: single-device pipeline chaos; serve: "
                            "multi-session serving chaos; fleet: sharded "
                            "enrollment-storm chaos (default: %(default)s)")
    chaos.add_argument("--seeds", type=int, default=20,
                       help="number of schedules (seeds first..first+N-1)")
    chaos.add_argument("--first-seed", type=int, default=0)
    chaos.add_argument("--out", default="chaos-out",
                       help="directory for per-seed transcripts")
    return parser


def _cmd_info(args) -> int:
    from repro.eval.figures import format_fig1
    from repro.eval.pretrained import standard_model
    from repro.trustzone.worlds import make_platform

    model, meta = standard_model()
    platform = make_platform()
    print(format_fig1(platform))
    print()
    print(f"pretrained model: {model.metadata.name} "
          f"v{model.metadata.version}")
    print(f"  parameters: {meta['parameters']:,}  "
          f"MACs/inference: {model.total_macs():,}")
    print(f"  validation accuracy: {meta['val_accuracy']:.1%}")
    return 0


def _cmd_table1(args) -> int:
    from repro.eval.table1 import format_table1, run_table1

    rows = run_table1(per_class=args.per_class)
    print(format_table1(rows))
    return 0


def _cmd_protocol(args) -> int:
    from repro import quickstart_session
    from repro.eval.figures import fig2_step_table

    session, dataset, _ = quickstart_session()
    result = session.recognize_via_microphone(
        dataset.render("yes", 0).samples)
    print(fig2_step_table(session))
    print(f"\nrecognized: {result.label!r}")
    return 0


def _cmd_attack(args) -> int:
    from repro import quickstart_session
    from repro.attacks.adversary import NormalWorldAdversary

    session, _, _ = quickstart_session()
    adversary = NormalWorldAdversary(session.platform)
    outcomes = [
        adversary.probe_memory(session.instance.region),
        adversary.corrupt_memory(session.instance.region),
        adversary.dma_attack(session.instance.region),
        adversary.search_flash_for_model(),
        adversary.snoop_microphone(),
    ]
    any_success = False
    for outcome in outcomes:
        verdict = "SUCCEEDED" if outcome.succeeded else "blocked"
        print(f"{outcome.name:20} {verdict:10} {outcome.detail}")
        any_success |= outcome.succeeded
    return 1 if any_success else 0


def _cmd_recognize(args) -> int:
    from repro import quickstart_session

    session, dataset, _ = quickstart_session()
    clip = dataset.render(args.word, args.index, speaker=args.speaker)
    result = session.recognize_via_microphone(clip.samples)
    print(f"spoken: {args.word!r}  recognized: {result.label!r}  "
          f"inference: {result.inference_ms:.2f} ms simulated")
    return 0 if result.label == args.word else 1


def _cmd_train(args) -> int:
    from repro.audio.features import FingerprintExtractor
    from repro.audio.speech_commands import LABELS, SyntheticSpeechCommands
    from repro.tflm.serialize import serialize_model
    from repro.train import (
        TrainConfig,
        features_to_float,
        load_split_features,
        train_network,
    )
    from repro.train.zoo import build_architecture, convert_network_int8

    dataset = SyntheticSpeechCommands()
    extractor = FingerprintExtractor()
    x_u8, y = load_split_features(dataset, extractor, "training",
                                  args.per_class)
    xv_u8, yv = load_split_features(dataset, extractor, "validation", 10)
    network = build_architecture(args.arch)
    history = train_network(
        network, features_to_float(x_u8), y,
        TrainConfig(epochs=args.epochs, verbose=True),
        features_to_float(xv_u8), yv)
    model = convert_network_int8(network, features_to_float(x_u8)[:256],
                                 labels=tuple(LABELS), name=args.arch)
    print(f"\n{args.arch}: val acc {history.final_val_accuracy:.1%}, "
          f"{model.total_macs():,} MACs, "
          f"{len(serialize_model(model)) / 1024:.1f} kB artifact")
    return 0


def _cmd_export(args) -> int:
    from repro.eval.export import export_results

    results = export_results(args.output, per_class=args.per_class)
    native = results["table1"]["native"]
    print(f"wrote {args.output}: native accuracy "
          f"{native['accuracy']:.0%} / {native['runtime_ms']:.0f} ms "
          f"(paper {native['accuracy_paper']:.0%} / "
          f"{native['runtime_ms_paper']:.0f} ms)")
    return 0


def _cmd_export_dataset(args) -> int:
    import os

    from repro.audio.speech_commands import LABELS, SyntheticSpeechCommands
    from repro.audio.wave_io import write_wave

    dataset = SyntheticSpeechCommands()
    os.makedirs(args.directory, exist_ok=True)
    written = 0
    for label in LABELS:
        label_dir = os.path.join(args.directory, label)
        os.makedirs(label_dir, exist_ok=True)
        for index in range(args.per_class):
            utterance = dataset.render(label, index)
            write_wave(os.path.join(label_dir, f"{index:05d}.wav"),
                       utterance.samples, dataset.config.sample_rate)
            written += 1
    print(f"wrote {written} WAVE files under {args.directory}")
    return 0


def _cmd_analyze(args) -> int:
    from repro.analysis import main as analysis_main

    argv = list(args.paths)
    if args.json:
        argv.append("--json")
    if args.format:
        argv.extend(["--format", args.format])
    for rule in args.rule or ():
        argv.extend(["--rule", rule])
    return analysis_main(argv)


def _cmd_trace(args) -> int:
    from repro.eval.trace_run import run_traced_serving
    from repro.obs import render_summary, to_prometheus, write_chrome_trace

    telemetry, stats = run_traced_serving(
        requests=args.requests, max_batch=args.batch,
        num_workers=args.workers, num_sessions=args.sessions,
        seed=args.seed, op_profiling=args.op_profile)
    print(render_summary(telemetry))
    print(f"served {stats.requests_completed} requests in "
          f"{stats.batches} batches "
          f"({stats.deadline_flushes} deadline flushes), "
          f"p50 {stats.p50_ms:.2f} ms / p95 {stats.p95_ms:.2f} ms "
          f"simulated")
    if args.out:
        write_chrome_trace(telemetry.tracer, args.out)
        print(f"wrote Chrome trace: {args.out}")
    if args.prom:
        with open(args.prom, "w") as fh:
            fh.write(to_prometheus(telemetry.metrics))
        print(f"wrote Prometheus snapshot: {args.prom}")
    return 0


def _cmd_chaos(args) -> int:
    from repro.eval.chaos import main as chaos_main

    return chaos_main(["--layer", args.layer,
                       "--seeds", str(args.seeds),
                       "--first-seed", str(args.first_seed),
                       "--out", args.out])


_COMMANDS = {
    "info": _cmd_info,
    "analyze": _cmd_analyze,
    "table1": _cmd_table1,
    "protocol": _cmd_protocol,
    "attack": _cmd_attack,
    "recognize": _cmd_recognize,
    "train": _cmd_train,
    "export": _cmd_export,
    "export-dataset": _cmd_export_dataset,
    "trace": _cmd_trace,
    "chaos": _cmd_chaos,
}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return _COMMANDS[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
