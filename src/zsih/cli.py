"""Command-line operator surface: synthesize data, build splits, train,
encode, and evaluate Hamming-space retrieval."""

import argparse
import io
import logging
import os
import sys

import numpy as np

from . import data, model, pipeline, retrieval
from .formats import FormatError, write_atomic

logger = logging.getLogger("zsih.cli")

_LOG_LEVELS = {"error": logging.ERROR, "info": logging.INFO, "debug": logging.DEBUG}


def _setup_logging():
    level = os.environ.get("ZSIH_LOG", "error").lower()
    if level not in _LOG_LEVELS:
        raise ValueError(f"ZSIH_LOG must be one of {sorted(_LOG_LEVELS)}, got {level!r}")
    logging.basicConfig(level=_LOG_LEVELS[level],
                        format="%(levelname)s %(name)s: %(message)s")


def _load_config(args):
    """The config file's settings, or the defaults, then each ``--set``
    in order and ``--seed`` last."""
    config = pipeline.load_config(args.config) if args.config else pipeline.ZsihConfig()
    entries = []
    for pair in args.set or []:
        if "=" not in pair:
            raise ValueError(f"--set expects key=value, got {pair!r}")
        key, raw = pair.split("=", 1)
        entries.append((f"--set {key.strip()}", key.strip(), raw))
    if args.seed is not None:
        entries.append(("--seed", "seed", str(args.seed)))
    return pipeline.read_config(entries, config)


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="zsih",
        description="Cross-modal sketch-image hashing with zero-shot retrieval",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    # the config and training inputs that train and ablate share
    training = argparse.ArgumentParser(add_help=False)
    training.add_argument("--config")
    training.add_argument("--set", action="append", metavar="KEY=VALUE")
    training.add_argument("--seed", type=int)
    training.add_argument("--sketches", required=True)
    training.add_argument("--images", required=True)
    training.add_argument("--semantics", required=True)
    training.add_argument("--synonyms")
    training.add_argument("--split", required=True)

    p = sub.add_parser("synth", help="generate a synthetic dataset")
    p.add_argument("--classes", type=int, default=10)
    p.add_argument("--per-class", type=int, default=20)
    p.add_argument("--locations", type=int, default=4)
    p.add_argument("--channels", type=int, default=32)
    p.add_argument("--semantic-dim", type=int, default=16)
    p.add_argument("--noise", type=float, default=0.1)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--sketches", required=True)
    p.add_argument("--images", required=True)
    p.add_argument("--semantics", required=True)

    p = sub.add_parser("split", help="draw a zero-shot seen/unseen class split")
    p.add_argument("--features", required=True)
    p.add_argument("--n-unseen", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True)

    p = sub.add_parser("train", parents=[training], help="train on the seen classes")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--metrics", required=True)
    p.add_argument("--resume")

    p = sub.add_parser("encode", help="hash features with a trained encoder")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--features", required=True)
    p.add_argument("--modality", choices=("sketch", "image"), required=True)
    p.add_argument("--out", required=True)

    p = sub.add_parser("retrieve", help="rank a gallery for each query code")
    p.add_argument("--queries", required=True)
    p.add_argument("--gallery", required=True)
    p.add_argument("--top", type=int, default=10)
    p.add_argument("--out", required=True)

    p = sub.add_parser("eval", help="retrieval metrics for query/gallery codes")
    p.add_argument("--queries", required=True)
    p.add_argument("--gallery", required=True)
    p.add_argument("--k", action="append", type=int)
    p.add_argument("--out", required=True)
    p.add_argument("--pr-dump")

    p = sub.add_parser("ablate", parents=[training],
                       help="sweep fusion/GCN/bandwidth settings")
    p.add_argument("--out", required=True)
    return parser


def run_synth(args, parser):
    counts = {
        "--classes": args.classes,
        "--per-class": args.per_class,
        "--locations": args.locations,
        "--channels": args.channels,
        "--semantic-dim": args.semantic_dim,
    }
    for flag, value in counts.items():
        if value <= 0:
            parser.error(f"{flag} must be positive, got {value}")
    if not (np.isfinite(args.noise) and args.noise >= 0):
        parser.error(f"--noise must be finite and non-negative, got {args.noise}")
    if args.seed < 0:
        parser.error(f"--seed must be non-negative, got {args.seed}")
    store, semantics = data.synth_dataset(
        args.classes, args.per_class, args.locations, args.channels,
        args.semantic_dim, args.noise, args.seed,
    )
    data.save_features(store, args.sketches, "sketch")
    data.save_features(store, args.images, "image")
    data.write_semantic_file(semantics, args.semantics)
    print(
        f"synthesized {args.classes} classes, {args.per_class} items per class "
        f"per modality, feature maps {args.locations}x{args.channels}, "
        f"semantics {args.semantic_dim}-D"
    )
    return 0


def run_split(args, parser):
    if args.seed < 0:
        parser.error(f"--seed must be non-negative, got {args.seed}")
    store = data.load_features(args.features)
    classes = store.classes
    if not 0 < args.n_unseen < len(classes):
        parser.error(
            f"--n-unseen must be in (0, {len(classes)}), got {args.n_unseen}"
        )
    split = data.make_split(classes, args.n_unseen, args.seed)
    data.save_split(split, args.out)
    print(f"split {len(classes)} classes: {len(split.seen)} seen, "
          f"{len(split.unseen)} unseen (seed {split.seed})")
    return 0


def _load_records(path, modality):
    """The ``modality`` records of a ZSFT file, which must hold some, all
    finite."""
    records = data.load_features(path).records[modality]
    if not len(records):
        raise ValueError(f"feature file {path} holds no {modality} items (modality mismatch)")
    # a float64 sum of float32 values cannot overflow, so an item's sum is
    # finite exactly when all its values are, with no full-size mask
    finite = np.isfinite(records["feat"].sum(axis=(1, 2), dtype=np.float64))
    if not finite.all():
        item = records["item_id"][finite.argmin()]
        raise FormatError(f"feature file {path} holds a non-finite value in item {item}")
    return records


def _training_inputs(args):
    """The seen-class training view, each modality's records and the split.
    Every class the split lists must have items in a feature file, and
    only the training classes need a semantic vector.  Stderr notes name the
    seen classes lacking a modality and the paired classes the split omits."""
    records = {"sketch": _load_records(args.sketches, "sketch"),
               "image": _load_records(args.images, "image")}
    split = data.load_split(args.split)
    absent = sorted((split.seen | split.unseen).difference(
        np.union1d(records["sketch"]["class_id"], records["image"]["class_id"]).tolist()))
    if absent:
        raise ValueError(f"split {args.split} lists classes with no items in "
                         f"{args.sketches} or {args.images}: {absent}")
    present = np.intersect1d(records["sketch"]["class_id"],
                             records["image"]["class_id"]).tolist()
    one_modality = sorted(split.seen.difference(present))
    if one_modality:
        print(f"note: seen classes {one_modality} have items in only one of "
              f"{args.sketches} and {args.images}; training leaves them out",
              file=sys.stderr)
    unlisted = sorted(set(present) - split.seen - split.unseen)
    if unlisted:
        print(f"note: split {args.split} does not list classes {unlisted}, "
              "which have items in both feature files", file=sys.stderr)
    train_classes = [c for c in present if c in split.seen]
    if not train_classes:
        raise ValueError("no seen classes with data in both modalities")
    semantics = data.load_semantics(args.semantics, train_classes, args.synonyms)
    dataset = pipeline.PairedDataset(records["sketch"], records["image"], semantics,
                                     train_classes)
    return dataset, records, split


def run_train(args, parser):
    config = _load_config(args)
    dataset = _training_inputs(args)[0]
    resume = pipeline.load_checkpoint(args.resume) if args.resume else None
    ckpt = pipeline.train(config, dataset, metrics_out=args.metrics, resume=resume)
    pipeline.save_checkpoint(ckpt, args.checkpoint)
    if ckpt.stop_reason == "diverged":
        print(f"error: training diverged after iteration {ckpt.iteration}; "
              f"last good state -> {args.checkpoint}", file=sys.stderr)
        return 1
    print(f"trained {ckpt.iteration} iterations over {len(dataset.classes)} "
          f"seen classes; checkpoint -> {args.checkpoint}")
    return 0


def _encode(params, records, modality):
    """Binary codes for one modality's ZSFT record array."""
    if modality == "sketch":
        soft = model.encode_features(records["feat"], params.attn_sk, params.enc_sk)
    else:
        soft = model.encode_features(records["feat"], params.attn_im, params.enc_im)
    return retrieval.binarize(soft, records["class_id"], modality=modality)


def run_encode(args, parser):
    ckpt = pipeline.load_checkpoint(args.checkpoint)
    params = ckpt.build_params()
    records = _load_records(args.features, args.modality)
    if records["feat"].shape[2] != params.feat_channels:
        raise ValueError(
            f"feature channels {records['feat'].shape[2]} do not match "
            f"checkpoint ({params.feat_channels})"
        )
    codes = _encode(params, records, args.modality)
    retrieval.save_codes(codes, args.out)
    print(f"encoded {len(codes)} {args.modality} items at {codes.n_bits} bits "
          f"-> {args.out}")
    return 0


def _load_query_gallery(args):
    """The query and gallery codes, which must come from the two modalities."""
    queries = retrieval.load_codes(args.queries)
    gallery = retrieval.load_codes(args.gallery)
    if queries.modality == gallery.modality:
        raise ValueError(
            f"query codes are {queries.modality} and gallery codes are "
            f"{gallery.modality}: retrieval ranks one modality against the other")
    return queries, gallery


def run_retrieve(args, parser):
    if args.top < 1:
        parser.error(f"--top must be positive, got {args.top}")
    queries, gallery = _load_query_gallery(args)
    ranked = retrieval.rank_rows(queries.codes, queries.n_bits, gallery)
    top = min(args.top, len(gallery))
    with (write_atomic(args.out) as raw,
          io.TextIOWrapper(raw, encoding="utf-8") as f):
        f.write("query\trank\tgallery_index\tdistance\n")
        for qi, (dist, order) in enumerate(ranked):
            order = order[:top]
            for rank, (gi, d) in enumerate(zip(order, dist[order]), start=1):
                f.write(f"{qi}\t{rank}\t{gi}\t{d}\n")
    print(f"ranked top-{top} of {len(gallery)} gallery items for "
          f"{len(queries)} queries -> {args.out}")
    return 0


def run_eval(args, parser):
    queries, gallery = _load_query_gallery(args)
    ks = args.k or [1, 10, 100]
    if any(k < 1 for k in ks):
        parser.error("--k values must be positive")
    report = retrieval.evaluate(queries, gallery, ks=ks)
    with (write_atomic(args.out) as raw,
          io.TextIOWrapper(raw, encoding="utf-8") as f):
        f.write(retrieval.format_report(report))
    if args.pr_dump:
        retrieval.write_pr_dump(report, args.pr_dump)
    print(f"mAP@all {report.map_all:.4f} over {len(report.per_query_ap)} queries "
          f"-> {args.out}")
    return 0


ABLATION_SETTINGS = (
    ("full", {}),
    ("fusion=concat", {"fusion_mode": "concat"}),
    ("fusion=mfb", {"fusion_mode": "mfb"}),
    ("no_gcn", {"use_gcn": "false"}),
    ("t=1", {"t": "1"}),
    ("t=1e-6", {"t": "1e-6"}),
)


def run_ablate(args, parser):
    base = _load_config(args)
    dataset, records, split = _training_inputs(args)
    unseen = {modality: rec[np.isin(rec["class_id"], sorted(split.unseen))]
              for modality, rec in records.items()}
    scored = np.intersect1d(unseen["sketch"]["class_id"], unseen["image"]["class_id"])
    if len(scored) < 2:
        # a one-class gallery makes every retrieval relevant: mAP 1.0 whatever the model
        raise ValueError("the ablation needs at least 2 unseen classes with data in both "
                         f"modalities; split {args.split} gives {len(scored)}")
    rows = []
    for name, overrides in ABLATION_SETTINGS:
        config = pipeline.read_config(
            [(f"ablate {name}", key, raw) for key, raw in overrides.items()], base)
        ckpt = pipeline.train(config, dataset)
        params = ckpt.build_params()
        q = _encode(params, unseen["sketch"], "sketch")
        g = _encode(params, unseen["image"], "image")
        report = retrieval.evaluate(q, g, ks=(1,))
        rows.append((name, report.map_all, ckpt.stop_reason))
        logger.info("ablation %s: mAP@all %.4f (%s)", name, report.map_all,
                    ckpt.stop_reason)
    with (write_atomic(args.out) as raw,
          io.TextIOWrapper(raw, encoding="utf-8") as f):
        f.write("setting\tmap_all\tstop_reason\n")
        for name, value, stop_reason in rows:
            f.write(f"{name}\t{value!r}\t{stop_reason}\n")
    print(f"ablation sweep over {len(rows)} settings -> {args.out}")
    return 0


_HANDLERS = {
    "synth": run_synth,
    "split": run_split,
    "train": run_train,
    "encode": run_encode,
    "retrieve": run_retrieve,
    "eval": run_eval,
    "ablate": run_ablate,
}


def main(argv=None):
    try:
        _setup_logging()
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _HANDLERS[args.verb](args, parser)
    except (ValueError, FloatingPointError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
