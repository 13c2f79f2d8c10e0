"""Command-line front end.

Subcommands: train-base, finetune, evaluate, sweep, gradcheck, physics-dump.
Exit codes: 0 success, 2 usage/config error, 1 runtime failure; errors are a
single machine-parsable line on stderr.
"""

import argparse
import math
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import autograd as ag
from . import emnn
from . import evaluation as ev
from . import training
from . import wavefield as wf
from .channel import (LINK_ORDER, ChannelSource, correlation_bundle, derive_seed,
                      realize_channels, receiver_noise)
from .config import PRESETS, ConfigError, load_config


def resolve_config(name_or_path):
    if name_or_path in PRESETS:
        return PRESETS[name_or_path]()
    path = Path(name_or_path)
    if not path.exists():
        raise ConfigError(f"config file not found: {name_or_path}")
    return load_config(path)


def full_grad_check(config, seed=0, batch=8, h=1e-6, power_dbm=10.0):
    """Worst gradient error of the complete network on a frozen forward.

    The check runs at a generic random point, not the raw initialization:
    zero-initialized biases put binary-input pre-activations exactly on the
    relu kink (the excluded relu-at-0 case), so all parameters get a small
    random jitter, and draws whose pre-activations still sit within
    finite-difference reach of a kink (or whose antenna streams approach the
    power-normalization discontinuity) are re-rolled with an offset seed.
    """
    for attempt in range(16):
        rng = np.random.default_rng(seed + 1009 * attempt)
        model = emnn.Emnn(config, rng=rng)
        for p in model.params.trainables():
            p.data += rng.uniform(-0.05, 0.05, p.data.shape)
        realization = realize_channels(config, rng)
        bits = rng.integers(0, 2, (batch, config.total_bits)).astype(float)
        powers = np.full(batch, power_dbm)
        frozen_noise = receiver_noise(config, batch, rng)

        def builder():
            logits = model.forward(bits, powers, realization, training=True,
                                   noise_override=frozen_noise)
            return training.bce_loss(bits, logits)

        if not _point_is_smooth(builder(), kink_margin=1e-4, power_floor=1e-6):
            continue
        return ag.grad_check(builder, model.params.trainables(), h=h)
    raise RuntimeError("no smooth gradient-check point found")


def _point_is_smooth(loss, kink_margin, power_floor):
    """No dense-layer pre-activation within finite-difference reach of its
    relu kink and no antenna stream whose mean power is near the
    power-normalization discontinuity at zero."""
    for node in ag.topo_order(loss):
        if node.op == "relu":
            x, w, b = (p.data for p in node._parents)
            if np.abs(x @ w + b[..., None, :]).min() < kink_margin:
                return False
        if node.op == "normalize_streams":
            raw = node._parents[0].data
            n = raw.shape[-1] // 2
            if (raw[..., :n] ** 2 + raw[..., n:] ** 2).mean(axis=-2).min() < power_floor:
                return False
    return True


def matrix_to_csv(path, matrix):
    matrix = np.asarray(matrix)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("row,col,re,im\n")
        for i in range(matrix.shape[0]):
            for j in range(matrix.shape[1]):
                v = complex(matrix[i, j])
                fh.write(f"{i},{j},{v.real!r},{v.imag!r}\n")


def _apply_scale_flags(config, args):
    if args.full_scale:
        config = replace(config, evaluation=replace(
            config.evaluation, monte_carlo=100, test_scale=100000))
    return config


def _out_dir(args):
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _realization(config, args):
    """(innovation seed, rng, frozen realization) of a run: --realization-seed,
    else a seed derived from --seed or the config's evaluation seed."""
    seed = args.seed if args.seed is not None else config.evaluation.seed
    real_seed = args.realization_seed if args.realization_seed is not None \
        else derive_seed(seed, 0)
    return (real_seed, np.random.default_rng(real_seed),
            ChannelSource(config).instantaneous(real_seed))


def cmd_train_base(args):
    ck = training.train_base(resolve_config(args.config), seed=args.seed)
    out = _out_dir(args)
    path = out / "base.ckpt"
    training.save_checkpoint(ck, path)
    (out / "base.phases.txt").write_text(emnn.export_phase_table(ck.params))
    status = "diverged" if ck.diverged else "ok"
    print(f"train-base {status} epochs={ck.epoch} final_loss={ck.final_loss():.6f} "
          f"checkpoint={path}")
    return 1 if ck.diverged else 0


def cmd_finetune(args):
    base = training.load_checkpoint(args.checkpoint)
    real_seed, rng, realization = _realization(base.config, args)
    [ck] = training.finetune(base, [realization], [rng])
    out = _out_dir(args)
    path = out / "finetune.ckpt"
    training.save_checkpoint(ck, path)
    (out / "finetune.phases.txt").write_text(emnn.export_phase_table(ck.params))
    status = "diverged" if ck.diverged else "ok"
    print(f"finetune {status} epochs={ck.epoch} final_loss={ck.final_loss():.6f} "
          f"realization_seed={real_seed} checkpoint={path}")
    return 1 if ck.diverged else 0


def cmd_evaluate(args):
    ck = training.load_checkpoint(args.checkpoint)
    config = ck.config if args.config is None else resolve_config(args.config)
    # the network's receiver gain (Emnn.rx_scale) is fixed by the noise power
    # it was trained at, so the override cannot change it
    if config.channel.noise_dbm != ck.config.channel.noise_dbm:
        raise ConfigError(f"--config noise_dbm {config.channel.noise_dbm} differs from "
                          f"the checkpoint's {ck.config.channel.noise_dbm}")
    config = _apply_scale_flags(config, args)
    model = emnn.Emnn(ck.config, params=ck.params)
    real_seed, rng, realization = _realization(config, args)
    powers = [args.power] if args.power is not None \
        else list(config.evaluation.power_sweep_dbm)
    rows = []
    for power in powers:
        errors, bits, ratio = ev.evaluate(model, realization, power,
                                          config.evaluation.test_scale, rng,
                                          batch_size=config.evaluation.eval_batch)
        rows.append(ev.BerRow(config.label, float(power), 0, real_seed,
                              bits, errors, ratio))
        print(f"evaluate power={power:.1f}dBm ber={ratio:.6e} "
              f"errors={errors}/{bits}")
    report = ev.BerReport(rows)
    out = _out_dir(args)
    report.to_csv(out / "evaluate.csv")
    report.to_json(out / "evaluate.json", config)
    return 0


def _parse_grid(kind, text):
    """Grid points of a sweep. A power sweep takes its powers from the
    config and no grid; the other kinds need a non-empty, well-formed one
    that names each point once, since a report row must name one run."""
    items = [s.strip() for s in text.split(",") if s.strip()]
    if kind == "power":
        if items:
            raise ConfigError("a power sweep takes no --grid; its powers "
                              "come from the config")
        return [None]
    if not items:
        raise ConfigError(f"a {kind} sweep needs a non-empty --grid")
    try:
        if kind == "layers":
            grid = [int(s) for s in items]
        else:
            sep = "x" if kind == "units" else "+"
            grid = [tuple(int(v) for v in s.split(sep)) for s in items]
    except ValueError as exc:
        raise ConfigError(f"malformed --grid {text!r}: {exc}") from exc
    if len(set(grid)) != len(grid):
        raise ConfigError(f"--grid {text!r} names a point twice")
    return grid


def cmd_sweep(args):
    config = _apply_scale_flags(resolve_config(args.config), args)
    grid = _parse_grid(args.kind, args.grid)
    report = ev.protocol(ev.sweep_configs(args.kind, grid, config),
                         master_seed=args.seed)
    out = _out_dir(args)
    report.to_csv(out / f"sweep_{args.kind}.csv")
    report.to_json(out / f"sweep_{args.kind}.json", config)
    for agg in report.aggregates():
        print(f"sweep {agg['label']} power={agg['power_dbm']:.1f}dBm "
              f"median_ber={agg['median_ber']:.6e} mean_ber={agg['mean_ber']:.6e}")
    return 0


def cmd_gradcheck(args):
    config = resolve_config(args.config)
    seed = args.seed if args.seed is not None else 0
    err = full_grad_check(config, seed=seed)
    print(f"gradcheck max_relative_error={err:.3e}")
    return 0 if err < 1e-5 else 1


def _stack_shapes(term):
    """(layers, units) of a terminal's TX and RX stacks."""
    return (term.tx_layers, term.tx_units), (term.rx_layers, term.rx_units)


def cmd_physics_dump(args):
    config = resolve_config(args.config)
    geom = config.geometry
    out = _out_dir(args)
    params = None
    if args.checkpoint:
        ck = training.load_checkpoint(args.checkpoint)
        for q in (1, 2):
            have, want = (_stack_shapes(c.geometry.terminal(q)) for c in (ck.config, config))
            if have != want:
                raise emnn.ArchitectureError(
                    f"checkpoint {args.checkpoint}: terminal {q} has (layers, units) "
                    f"tx {have[0]}, rx {have[1]}, but --config has tx {want[0]}, "
                    f"rx {want[1]}")
        params = ck.params
    for q in (1, 2):
        term = geom.terminal(q)
        if params is not None:
            theta = [wf.wrap_phase(t.data) for t in params.layers(q, "theta")]
            xi = [wf.wrap_phase(t.data) for t in params.layers(q, "xi")]
        else:
            theta = [np.zeros(term.tx_units) for _ in range(term.tx_layers)]
            xi = [np.zeros(term.rx_units) for _ in range(term.rx_layers)]
        # the forward's stage functions, started from identities, give T^T, R^T
        rx_width = math.prod(term.channel_grids[1])
        t_op = emnn.tx_sim_forward(ag.Tensor(np.eye(term.tx_antennas, dtype=complex)),
                                   wf.stack_factors(geom, *term.tx_stack), theta)
        r_op = emnn.rx_sim_forward(ag.Tensor(np.eye(rx_width, dtype=complex)),
                                   wf.stack_factors(geom, *term.rx_stack), xi)
        matrix_to_csv(out / f"t{q}_tx_operator.csv", t_op.data.T)
        matrix_to_csv(out / f"t{q}_rx_operator.csv", r_op.data.T)
    for q, corr in correlation_bundle(geom).items():
        matrix_to_csv(out / f"t{q}_corr_tx.csv", corr.tx)
        matrix_to_csv(out / f"t{q}_corr_rx.csv", corr.rx)
    if args.realization_seed is not None:
        realization = ChannelSource(config).instantaneous(args.realization_seed)
        for p, q in LINK_ORDER:
            matrix_to_csv(out / f"g{p}{q}.csv", realization.link(p, q))
    print(f"physics-dump wrote operator and correlation matrices to {out}")
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="simfd",
        description="Metasurface-assisted full-duplex link simulator")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", default="reference",
                        help="config JSON path or preset name (reference, mini)")
    common.add_argument("--seed", type=int, default=None)
    common.add_argument("--out", default=".", help="output directory")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train-base", parents=[common],
                       help="train the base model on the statistical channel")
    p.set_defaults(func=cmd_train_base)

    p = sub.add_parser("finetune", parents=[common],
                       help="fine-tune a base checkpoint on one realization")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--realization-seed", type=int, default=None)
    p.set_defaults(func=cmd_finetune)

    p = sub.add_parser("evaluate", parents=[common],
                       help="BER of a checkpoint on a frozen realization")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--power", type=float, default=None)
    p.add_argument("--realization-seed", type=int, default=None)
    p.add_argument("--full-scale", action="store_true",
                   help="reference-scale Monte Carlo / test counts")
    # --config here overrides the checkpoint's own settings; no preset default
    p.set_defaults(func=cmd_evaluate, config=None)

    p = sub.add_parser("sweep", parents=[common],
                       help="train and evaluate a grid of configurations")
    p.add_argument("--kind", required=True,
                   choices=("layers", "units", "bits", "power"))
    p.add_argument("--grid", default="",
                   help="comma list: layers '1,3'; units '4x4,6x6'; bits '4+4,8+8'")
    p.add_argument("--full-scale", action="store_true")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("gradcheck", parents=[common],
                       help="finite-difference check of the full network")
    p.set_defaults(func=cmd_gradcheck, config="mini")

    p = sub.add_parser("physics-dump", parents=[common],
                       help="export propagation operators and correlations")
    p.add_argument("--checkpoint", default=None,
                   help="take phases from this checkpoint (default: zero phases)")
    p.add_argument("--realization-seed", type=int, default=None,
                   help="also dump the four link matrices of this realization")
    p.set_defaults(func=cmd_physics_dump)
    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (ConfigError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (emnn.ArchitectureError, training.CheckpointError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
