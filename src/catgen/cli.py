"""Command-line entry point: synth, granger, mask, train, generate, eval, ablate.

Exit codes: 0 success, 1 usage error, 2 data, file or numeric error. Before
any work, granger, mask, train (its default history.csv included), generate,
eval and ablate check each output path: it is not a directory, its directory
exists, and it names a file no other output or input of the command names.
All randomness flows from --seed (default: CATGEN_SEED environment variable,
then 42; a CATGEN_SEED that is not an integer is an error), and every
subcommand is reproducible byte-for-byte given identical arguments, seed and
inputs.
Commands parse their arguments, call the library and write every table
through ``data.write_csv``; only ``mask`` writes its own header-less CSV, and
takes the noisy-token count S as the sum of its --sz split sizes.
``ablate --grid KEY=V1,V2,...`` types and checks each setting as ``--set`` does;
it prepares the data once, so only a key of ``config.FIT_KEYS`` can vary.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import dataclasses
import logging
import math
import os
import sys

from .errors import CatgenError, ConfigError, DataFormatError

log = logging.getLogger("catgen")
THREAD_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage problems exit 1, not argparse's default 2
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def positive_int(text: str) -> int:
    value = int(text)  # argparse reports a ValueError as an invalid positive_int value
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _default_seed() -> int:
    raw = os.environ.get("CATGEN_SEED", "42")
    try:
        seed = int(raw)
    except ValueError:
        raise ConfigError(f"CATGEN_SEED must be an integer, got {raw!r}") from None
    if seed < 0:
        raise ConfigError(f"CATGEN_SEED must not be negative, got {seed}")
    return seed


def build_parser() -> _Parser:
    parser = _Parser(prog="catgen", description=__doc__.splitlines()[0])
    parser.add_argument("--verbose", "-v", action="count", default=0)
    parser.add_argument("--threads", type=positive_int, default=None, help="cap BLAS threads")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--set", dest="overrides", action="append", metavar="KEY=VALUE")
        p.add_argument("--config", default=None)

    p = sub.add_parser("synth", help="generate paired synthetic ST/SC matrices")
    common(p)
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("granger", help="pairwise Granger causality screen")
    p.add_argument("--matrix", required=True)
    p.add_argument("--lag", type=positive_int, default=1)
    p.add_argument("--top-k", type=positive_int, default=5)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_granger)

    p = sub.add_parser("mask", help="emit a causal attention mask; S is the sum of --sz")
    p.add_argument("--c", type=int, required=True)
    p.add_argument("--sz", required=True, help="comma-separated split sizes")
    p.add_argument("--out", default=None, help="CSV output path (stdout if omitted)")
    p.add_argument("--pbm", default=None, help="also write a PBM bitmap here")
    p.set_defaults(func=cmd_mask)

    p = sub.add_parser("train", help="train the causality-aware transformer")
    common(p)
    p.add_argument("--st", required=True)
    p.add_argument("--sc", required=True)
    p.add_argument("--out", required=True, help="checkpoint path (.catg)")
    p.add_argument("--history", default=None, help="metrics history CSV path")
    p.add_argument("--save-prepared", default=None, metavar="DIR",
                   help="write preprocessed matrices and gene splits here")
    p.add_argument("--gene-order", choices=("random", "granger"), default=None)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("generate", help="generate ST profiles from a checkpoint")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--sc", required=True)
    p.add_argument("--genes", required=True, help="file with one target gene id per line")
    p.add_argument("--out", required=True)
    p.add_argument("--ar-groups", type=positive_int, default=1)
    p.add_argument("--sampling", default="full", help="full (= frac:1) or frac:n")
    p.add_argument("--embeddings", default=None, help="write each gene's encode(sc) as CSV; "
                   "generation conditions on it times 1/latent.scale")
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("eval", help="score predictions against ground truth")
    p.add_argument("--pred", required=True)
    p.add_argument("--truth", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--gene-distances", default=None,
                   help="write pairwise gene distance matrix of the predictions")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("ablate", help="fit once per setting of one model or training key")
    common(p)
    p.add_argument("--grid", required=True, metavar="KEY=V1,V2,...",
                   help="a model.*, train.*, diffusion.* or ar.decay key, and its settings")
    p.add_argument("--st", required=True)
    p.add_argument("--sc", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--seeds", type=positive_int, default=1, help="number of seeds per setting")
    p.set_defaults(func=cmd_ablate)
    return parser


def _resolve_seed(args) -> int:
    seed = getattr(args, "seed", None)
    if seed is None:
        return _default_seed()
    if seed < 0:
        raise ConfigError(f"--seed must not be negative, got {seed}")
    return seed


def _require_out_dirs(*paths, inputs=(), unmade=()) -> None:
    """Fail before any work when an output path is a directory, its directory
    does not exist, or it names the same file as another output or an input.
    The outputs in ``unmade`` go into a directory the command makes later, so
    only their names are compared."""
    seen = {os.path.realpath(path): path for path in inputs if path is not None}
    for path in paths:
        if path is not None:
            directory = os.path.dirname(os.path.abspath(path))
            if os.path.isdir(path):
                raise DataFormatError(f"cannot write {path}: it is a directory")
            if not os.path.isdir(directory):
                raise DataFormatError(f"cannot write {path}: no directory {directory}")
    for path in (*paths, *unmade):
        if path is not None:
            real = os.path.realpath(path)
            if real in seen:
                raise DataFormatError(f"cannot write {path}: it is the same file as {seen[real]}")
            seen[real] = path


def _load_values(args) -> dict:
    from .config import apply_overrides, load_config

    values = load_config(getattr(args, "config", None))
    return apply_overrides(values, getattr(args, "overrides", None))


# -- subcommands -----------------------------------------------------------------


def cmd_synth(args) -> int:
    from .config import synth_config
    from .data import save_matrix, write_csv
    from .synth import generate

    cfg = synth_config(_load_values(args), _resolve_seed(args))
    st, sc, edges = generate(cfg)
    os.makedirs(args.out_dir, exist_ok=True)
    save_matrix(st, os.path.join(args.out_dir, "st.csv"))
    save_matrix(sc, os.path.join(args.out_dir, "sc.csv"))
    write_csv(os.path.join(args.out_dir, "edges.csv"), ["driver", "target", "coeff", "lag"], edges)
    log.info("wrote st.csv, sc.csv, edges.csv to %s", args.out_dir)
    return 0


def cmd_granger(args) -> int:
    from .data import load_matrix, write_csv
    from .granger import screen

    _require_out_dirs(args.out, inputs=(args.matrix,))
    results = screen(load_matrix(args.matrix), lag=args.lag, top_k=args.top_k)
    rows = ([r.driver, r.target, r.lag, r.f_stat, r.p_value] for r in results)
    write_csv(args.out, ["driver", "target", "lag", "f_stat", "p_value"], rows)
    return 0


def cmd_mask(args) -> int:
    from .arplan import ARStepPlan
    from .mask import build_mask

    _require_out_dirs(args.out, args.pbm)
    plan = ARStepPlan.from_text(args.sz)
    rows = build_mask(args.c, plan).astype(int).tolist()
    if args.out:
        out = open(args.out, "w", encoding="utf-8", newline="")
    else:
        out = contextlib.nullcontext(sys.stdout)
    with out as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)
    if args.pbm:  # plain PBM bitmap; blocked entries render black
        with open(args.pbm, "w", encoding="utf-8", newline="") as fh:
            fh.write(f"P1\n{len(rows)} {len(rows)}\n")
            csv.writer(fh, delimiter=" ", lineterminator="\n").writerows(rows)
    return 0


def _prepare_from_files(st_path, sc_path, values):
    from .config import data_options
    from .data import load_matrix, prepare_pair

    opts = data_options(values)
    pair = prepare_pair(load_matrix(st_path), load_matrix(sc_path), **dataclasses.asdict(opts))
    return pair, opts


def cmd_train(args) -> int:
    from .config import model_config, train_config
    from .data import save_matrix, split_genes, write_csv
    from .model import save_checkpoint
    from .train import fit

    history_path = args.history or os.path.join(os.path.dirname(os.path.abspath(args.out)), "history.csv")
    out_dir = args.save_prepared
    gene_sets = ("train", "val", "test")
    names = ("st_prepared.csv", "sc_prepared.csv", *(f"genes_{s}.txt" for s in gene_sets))
    prepared = {name: os.path.join(out_dir, name) for name in names} if out_dir else {}
    _require_out_dirs(
        args.out, history_path, inputs=(args.st, args.sc, args.config), unmade=prepared.values()
    )
    if out_dir and os.path.isfile(out_dir):  # it is made just before fit
        raise DataFormatError(f"cannot write to {out_dir}: not a directory")
    seed = _resolve_seed(args)
    values = _load_values(args)
    cfg = train_config(values, seed)
    if args.gene_order:
        cfg.gene_order = args.gene_order
    mcfg = model_config(values, p=1, q=1)  # p and q come from the data, the rest is checked first
    pair, opts = _prepare_from_files(args.st, args.sc, values)
    split = split_genes(range(len(pair.genes)), seed)
    mcfg = dataclasses.replace(mcfg, p=pair.st.n_obs, q=pair.sc.n_obs)
    if out_dir:  # not earlier, so that a run that fails before fit leaves none
        os.makedirs(out_dir, exist_ok=True)

    result = fit(pair.st, pair.sc, split, mcfg, cfg)
    meta = {
        "T": cfg.T,
        "beta_start": cfg.beta_start,
        "beta_end": cfg.beta_end,
        "seed": seed,
        "data_normalize": int(opts.apply_normalize),
        "qc_min_genes_sc": opts.min_genes_sc,
        "qc_min_genes_st": opts.min_genes_st,
    }
    save_checkpoint(result.params, args.out, meta)
    columns = ["epoch", "train_loss", "val_pcc"]
    write_csv(history_path, columns, ([row[c] for c in columns] for row in result.history))
    if out_dir:
        save_matrix(pair.st, prepared["st_prepared.csv"])
        save_matrix(pair.sc, prepared["sc_prepared.csv"])
        for name, indices in zip(gene_sets, (split.train_genes, split.val_genes, split.test_genes)):
            with open(prepared[f"genes_{name}.txt"], "w", encoding="utf-8") as fh:
                fh.write("\n".join(pair.genes[i] for i in indices) + "\n")
    log.info("best validation PCC %.4f at epoch %d", result.best_val_pcc, result.best_epoch)
    return 0


def cmd_generate(args) -> int:
    from .data import DataOptions, load_matrix, save_matrix, utf8_text, write_csv
    from .diffusion import linear_schedule, parse_strategy
    from .generate import generate_genes
    from .model import load_checkpoint

    _require_out_dirs(args.out, args.embeddings, inputs=(args.ckpt, args.sc, args.genes))
    seed = _resolve_seed(args)
    params, meta = load_checkpoint(args.ckpt)
    missing = [f"meta.{key}" for key in ("T", "beta_start", "beta_end") if key not in meta]
    if missing:
        raise DataFormatError(f"{args.ckpt}: checkpoint missing {', '.join(missing)}")
    if not (meta["T"].is_integer() and meta["T"] >= 1):  # nor are NaN and the infinities
        raise DataFormatError(f"{args.ckpt}: meta.T is {meta['T']!r}, not a whole number >= 1")
    schedule = linear_schedule(int(meta["T"]), meta["beta_start"], meta["beta_end"])
    strategy = parse_strategy(args.sampling)
    strategy.check(schedule.T)  # a stride beyond T fails before the SC is read
    # checkpoints without the data meta used the defaults
    qc = float(meta.get("qc_min_genes_sc", DataOptions.min_genes_sc))
    if not qc.is_integer():
        raise DataFormatError(f"{args.ckpt}: meta.qc_min_genes_sc is {qc!r}, not a whole number")
    normalize = meta.get("data_normalize", DataOptions.apply_normalize)
    if normalize not in (0, 1):  # nor is NaN
        raise DataFormatError(f"{args.ckpt}: meta.data_normalize is {normalize!r}, not 0 or 1")
    opts = DataOptions(min_genes_sc=int(qc), apply_normalize=bool(normalize))
    sc = opts.qc_normalize(load_matrix(args.sc), opts.min_genes_sc)
    with open(args.genes, "r", encoding="utf-8") as fh, utf8_text(args.genes):
        genes = [line.strip() for line in fh if line.strip() and not line.startswith("#")]
    predicted = generate_genes(
        sc,
        genes,
        params,
        schedule,
        groups=args.ar_groups,
        strategy=strategy,
        seed=seed,
        trained_T=int(meta["T"]),
    )
    save_matrix(predicted, args.out)
    if args.embeddings:
        from .model import encode

        latents = encode(sc.values[[sc.gene_index()[g] for g in genes]], "sc", params.detached())
        rows = ([gene, *row.tolist()] for gene, row in zip(genes, latents))
        write_csv(args.embeddings, ["gene_id", *(f"z{i}" for i in range(params.cfg.d))], rows)
    return 0


def cmd_eval(args) -> int:
    import numpy as np

    from .data import load_matrix, write_csv
    from .errors import ShapeMismatchError, UnknownGeneError
    from .metrics import aggregate, js_divergence, pcc, rmse_z, score_rows, ssim

    _require_out_dirs(args.out, args.gene_distances, inputs=(args.pred, args.truth))
    pred = load_matrix(args.pred)
    truth = load_matrix(args.truth)
    truth_index = truth.gene_index()
    missing = [g for g in pred.gene_ids if g not in truth_index]
    if missing:
        raise UnknownGeneError(f"predicted genes missing from truth: {', '.join(missing)}")
    if pred.n_obs != truth.n_obs:
        raise ShapeMismatchError(
            f"predictions have {pred.n_obs} spots, the truth has {truth.n_obs}"
        )

    columns = {"pcc": pcc, "ssim": ssim, "rmse": rmse_z, "js": js_divergence}
    truth_rows = truth.values[[truth_index[g] for g in pred.gene_ids]]
    scores = score_rows(pred.values, truth_rows, list(columns.values()))
    rows = [[gene, *cells] for gene, *cells in zip(pred.gene_ids, *scores)]
    # undefined metrics stay NaN cells; the summary rows aggregate the defined ones
    defined = [[s for s in column if not math.isnan(s)] for column in scores]
    summary = [aggregate(valid) if valid else (math.nan, math.nan) for valid in defined]
    rows.append(["__mean__", *(mean for mean, _ in summary)])
    rows.append(["__variance__", *(variance for _, variance in summary)])
    write_csv(args.out, ["gene_id", *columns], rows)

    if args.gene_distances:
        values = pred.values
        rows = (  # one row at a time: O(genes x spots)
            [gene, *np.sqrt(((row - values) ** 2).sum(axis=1)).tolist()]
            for gene, row in zip(pred.gene_ids, values)
        )
        write_csv(args.gene_distances, ["gene_id", *pred.gene_ids], rows)
    return 0


def cmd_ablate(args) -> int:
    from .config import FIT_KEYS, apply_overrides, model_config, train_config
    from .data import split_genes, write_csv
    from .train import fit

    _require_out_dirs(args.out, inputs=(args.st, args.sc, args.config))
    base_seed = _resolve_seed(args)
    values = _load_values(args)
    key, _, texts = map(str.strip, args.grid.partition("="))
    if "" in map(str.strip, texts.split(",")):  # so is a spec with no "="
        raise ConfigError(f"--grid {args.grid!r} is not of the form key=value,value,...")
    trials = []  # each setting is checked once, before any input is read; p, q and seed come later
    for text in texts.split(","):
        trial = apply_overrides(dict(values), [f"{key}={text}"])
        if key not in FIT_KEYS:  # the data is prepared once, before the first fit
            raise ConfigError(f"ablate cannot vary {key}: it sets no model or training option")
        trials.append((trial[key], model_config(trial, p=1, q=1), train_config(trial, base_seed)))
    pair, _ = _prepare_from_files(args.st, args.sc, values)

    def rows():  # each row is written as soon as its fit ends
        for setting, mcfg, cfg in trials:
            mcfg = dataclasses.replace(mcfg, p=pair.st.n_obs, q=pair.sc.n_obs)
            for seed in range(base_seed, base_seed + args.seeds):
                split = split_genes(range(len(pair.genes)), seed)
                result = fit(pair.st, pair.sc, split, mcfg, dataclasses.replace(cfg, seed=seed))
                log.info("ablate %s=%s seed=%d -> %.4f", key, setting, seed, result.best_val_pcc)
                yield [key, setting, seed, result.best_val_pcc, result.best_epoch]

    write_csv(args.out, ["key", "setting", "seed", "best_val_pcc", "best_epoch"], rows())
    return 0


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # usage errors (1) and --help (0) return their code
        return exc.code if isinstance(exc.code, int) else 1
    if args.threads is not None:  # parsing loads no numpy, whose BLAS reads these on import
        for var in THREAD_ENV:
            os.environ[var] = str(args.threads)
    level = logging.WARNING - 10 * min(args.verbose, 2)
    logging.basicConfig(stream=sys.stderr, level=level, format="%(levelname)s %(name)s: %(message)s")
    try:
        return args.func(args)
    # OSError: a file that cannot be opened or written; MemoryError: a size no machine can hold
    except (CatgenError, OSError, MemoryError) as exc:
        print(f"catgen: error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
