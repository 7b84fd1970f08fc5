"""Command line interface: fit a model, run benchmarks, generate synthetic pairs."""

import argparse
import sys
from pathlib import Path

from .bench import GridSpec, emit_report, grid_search
from .dataset import DomainPair, load_csv, save_csv, standardize_pair, synth_shift_pair
from .kernels import KernelSpec
from .mmd import mmd_latent
from .tlr import TlrHyperparams, fit, save_model


def _parse_label_choice(value: str) -> int | str | None:
    if value == "last":
        return -1
    if value == "none":
        return None
    if value == "same":
        return "same"
    try:
        return int(value)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"labels must be 'last', 'none', or a column index, got {value!r}"
        ) from None


def _parse_bandwidth(value: str) -> float | None:
    if value == "auto":
        return None
    try:
        parsed = float(value)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"bandwidth must be 'auto' or a positive real, got {value!r}"
        ) from None
    return parsed


def _parse_float_list(value: str) -> tuple[float, ...]:
    return tuple(float(token) for token in value.split(",") if token.strip())


def _parse_int_list(value: str) -> tuple[int, ...]:
    return tuple(int(token) for token in value.split(",") if token.strip())


def _add_data_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--source", required=True, help="source-domain CSV file")
    parser.add_argument("--target", required=True, help="target-domain CSV file")
    parser.add_argument(
        "--labels",
        type=_parse_label_choice,
        default="last",
        help="label column in the source CSV: 'last', 'none', or an index (default last)",
    )
    parser.add_argument(
        "--target-labels",
        type=_parse_label_choice,
        default="same",
        help="label column in the target CSV (default: same as --labels)",
    )
    parser.add_argument("--header", action="store_true", help="skip the first line of each CSV")
    parser.add_argument(
        "--zscore",
        choices=("per-domain", "pooled", "none"),
        default="per-domain",
        help="standardization mode applied before anything else (default per-domain)",
    )


def _add_kernel_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--kernel", choices=("linear", "rbf"), default="linear", help="kernel family"
    )
    parser.add_argument(
        "--bandwidth",
        type=_parse_bandwidth,
        default="auto",
        help="rbf bandwidth: 'auto' picks the median pairwise distance",
    )


def _add_config_option(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--config",
        default=None,
        help="key=value file supplying defaults for any flag; explicit flags win",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tlr-adapt",
        description="Kernel-space latent projections for unsupervised domain adaptation.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    fit_cmd = commands.add_parser("fit", help="fit one projection and save the model")
    _add_config_option(fit_cmd)
    _add_data_options(fit_cmd)
    _add_kernel_options(fit_cmd)
    fit_cmd.add_argument("--alpha", type=float, required=True, help="source reconstruction weight")
    fit_cmd.add_argument("--beta", type=float, required=True, help="target reconstruction weight")
    fit_cmd.add_argument("--k", type=int, required=True, help="latent width")
    fit_cmd.add_argument("--out", required=True, help="path for the serialized model")
    fit_cmd.set_defaults(handler=_cmd_fit)

    bench_cmd = commands.add_parser("bench", help="grid-search a pair and write a report")
    _add_config_option(bench_cmd)
    _add_data_options(bench_cmd)
    _add_kernel_options(bench_cmd)
    default_grid = GridSpec.default()
    bench_cmd.add_argument(
        "--alphas", type=_parse_float_list, default=default_grid.alphas, help="comma list of alphas"
    )
    bench_cmd.add_argument(
        "--betas", type=_parse_float_list, default=default_grid.betas, help="comma list of betas"
    )
    bench_cmd.add_argument(
        "--ks", type=_parse_int_list, default=default_grid.ks, help="comma list of latent widths"
    )
    bench_cmd.add_argument("--runs", type=int, default=1, help="number of evaluation runs")
    bench_cmd.add_argument("--seed", type=int, default=0, help="seed for the run draws")
    bench_cmd.add_argument(
        "--per-class",
        type=int,
        default=None,
        help="resample this many source rows per class each run",
    )
    bench_cmd.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="threads for the weight ratios of each run; they help only when n1 + n2 >= 900",
    )
    bench_cmd.add_argument("--report", required=True, help="where to write the report")
    bench_cmd.add_argument(
        "--format", choices=("csv", "markdown"), default="csv", help="report format"
    )
    bench_cmd.add_argument(
        "--pair-id", default=None, help="pair name in the report (default: file stems)"
    )
    bench_cmd.set_defaults(handler=_cmd_bench)

    synth_cmd = commands.add_parser("synth", help="generate a synthetic shifted pair")
    _add_config_option(synth_cmd)
    synth_cmd.add_argument("--classes", type=int, default=4, help="number of classes")
    synth_cmd.add_argument("--n", type=int, default=100, help="samples per class per domain")
    synth_cmd.add_argument("--dim", type=int, default=20, help="feature width")
    synth_cmd.add_argument(
        "--rotation", type=float, default=0.0, help="target rotation, degrees, first two axes"
    )
    synth_cmd.add_argument(
        "--translation", type=float, default=0.0, help="constant added to target coordinates"
    )
    synth_cmd.add_argument("--noise", type=float, default=1.0, help="blob standard deviation")
    synth_cmd.add_argument("--seed", type=int, default=0, help="generator seed")
    synth_cmd.add_argument(
        "--out-prefix", default="synth_", help="files are written as <prefix>source.csv etc."
    )
    synth_cmd.set_defaults(handler=_cmd_synth)
    return parser


def _load_pair(args, require_target_labels: bool) -> DomainPair:
    if args.labels == "same":
        raise ValueError("--labels must be 'last', 'none', or a column index")
    target_labels = args.labels if args.target_labels == "same" else args.target_labels
    if require_target_labels and target_labels is None:
        raise ValueError("this command needs target labels; point --target-labels at a column")
    source = load_csv(args.source, label_column=args.labels, skip_header=args.header)
    target = load_csv(args.target, label_column=target_labels, skip_header=args.header)
    return standardize_pair(DomainPair(source, target), args.zscore)


def _kernel_spec(args) -> KernelSpec:
    return KernelSpec(kind=args.kernel, bandwidth=args.bandwidth)


def _cmd_fit(args) -> int:
    pair = _load_pair(args, require_target_labels=False)
    hyper = TlrHyperparams(alpha=args.alpha, beta=args.beta, k=args.k)
    model, latent_source, latent_target = fit(pair, hyper, _kernel_spec(args))
    save_model(model, args.out)
    print(
        f"model written to {args.out}: kernel={model.kernel.kind}, "
        f"alpha={hyper.alpha:g}, beta={hyper.beta:g}, k={hyper.k}, "
        f"latent discrepancy {mmd_latent(latent_source, latent_target):.6e}"
    )
    return 0


def _cmd_bench(args) -> int:
    pair = _load_pair(args, require_target_labels=True)
    grid = GridSpec(alphas=args.alphas, betas=args.betas, ks=args.ks)
    pair_id = args.pair_id or f"{Path(args.source).stem}->{Path(args.target).stem}"
    report = grid_search(
        pair,
        grid=grid,
        kernel=_kernel_spec(args),
        runs=args.runs,
        seed=args.seed,
        per_class=args.per_class,
        jobs=args.jobs,
        pair_id=pair_id,
    )
    emit_report(report, args.report, format=args.format)
    best = report.best
    print(
        f"{pair_id}: best alpha={best.alpha:g}, beta={best.beta:g}, k={best.k}, "
        f"mean accuracy {best.mean_accuracy:.4f} "
        f"({len(report.records)} configurations, {len(report.skipped)} skipped); "
        f"report written to {args.report}"
    )
    return 0


def _cmd_synth(args) -> int:
    pair = synth_shift_pair(
        n_per_class=args.n,
        d=args.dim,
        classes=args.classes,
        rotation_deg=args.rotation,
        translation=args.translation,
        noise_std=args.noise,
        seed=args.seed,
    )
    source_path = f"{args.out_prefix}source.csv"
    target_path = f"{args.out_prefix}target.csv"
    save_csv(pair.source, source_path)
    save_csv(pair.target, target_path)
    print(
        f"wrote {source_path} and {target_path}: {args.classes} classes, "
        f"{args.n} samples per class, width {args.dim}, labels in the last column"
    )
    return 0


def _expand_config(argv: list[str]) -> list[str]:
    """Inject flags from a key=value config file ahead of the explicit ones."""
    path = None
    for position, token in enumerate(argv):
        if token == "--config" and position + 1 < len(argv):
            path = argv[position + 1]
        elif token.startswith("--config="):
            path = token.split("=", 1)[1]
    if path is None or not argv:
        return argv
    injected: list[str] = []
    with open(path) as handle:
        for lineno, line in enumerate(handle, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"{path}: line {lineno}: expected key=value, got {line!r}")
            key, value = (part.strip() for part in line.split("=", 1))
            flag = "--" + key.replace("_", "-")
            if value.lower() == "true":
                injected.append(flag)
            elif value.lower() == "false":
                continue
            else:
                injected.extend([flag, value])
    return [argv[0], *injected, *argv[1:]]


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        argv = _expand_config(argv)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
