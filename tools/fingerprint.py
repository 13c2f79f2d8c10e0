"""Digests of simfd's reproducible outputs, to show that a change moved none.

Prints one JSON object of sha256 digests:

- the `train_base` checkpoint container and history CSV for `mini`
  (120 epochs x its 3 restarts) and `reference` (30 epochs);
- the `train_base` checkpoint container for `mini` with `trainable_power`
  (40 epochs x 3 restarts), whose power control learns its allocation;
- the checkpoint that `finetune` writes for the mini base on realization
  `instantaneous(3)` with rng seed 3, which carries the optimizer moments
  handed over from the base;
- the `monte_carlo_eval` rows of the mini checkpoint over 2 realizations,
  and a `rerun_row` replay of its last row;
- the `simfd gradcheck --config mini` output line;
- every CSV of `simfd physics-dump --config mini`, once with zero phases and
  once with the mini checkpoint's phases and realization seed 3;
- the CSV and JSON of `simfd evaluate` on the mini checkpoint, with its own
  config;
- the CSV and JSON of `simfd sweep --kind layers --grid 0,1` on a quick mini
  config (40 epochs, 1 restart, batch 64, 5 fine-tune epochs, 2 realizations
  of 500 symbols);
- the link bytes of `realize_channels` with rng seeds 0-4 and of
  `ChannelSource.instantaneous(3)`, for `mini` and `reference` with
  `si_shadowing_db` 3 (the presets leave the SI links unshadowed).

Run it against two trees and diff the output:

    PYTHONPATH=<tree>/src python tools/fingerprint.py

`tests/data/fingerprint.json` holds this tree's output, and
`tests/test_fingerprint.py` checks `fingerprint()` against it; a change that
moves an output on purpose rewrites that file with this script's output.
"""

import contextlib
import dataclasses
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

import numpy as np

from simfd import cli, evaluation, training
from simfd.channel import LINK_ORDER, ChannelSource, realize_channels
from simfd.config import miniature_config, reference_config, save_config


def sha(data):
    return hashlib.sha256(data if isinstance(data, bytes) else data.encode()).hexdigest()


def rows_digest(rows):
    return sha(json.dumps([dataclasses.astuple(r) for r in rows]))


def cli_stdout(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    if code != 0:
        raise SystemExit(f"simfd {' '.join(argv)} exited {code}")
    return out.getvalue()


def fingerprint():
    """{output name: sha256 hex digest} of every output listed above."""
    digests = {}
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        for name, config, epochs in (("mini", miniature_config(), 120),
                                     ("reference", reference_config(), 30)):
            ck = training.train_base(config, epochs=epochs)
            path = tmp / f"{name}.ckpt"
            training.save_checkpoint(ck, path)
            digests[f"train_base.{name}.ckpt"] = sha(path.read_bytes())
            digests[f"train_base.{name}.history.csv"] = sha(
                Path(f"{path}.history.csv").read_bytes())
        ck = training.train_base(dataclasses.replace(miniature_config(), trainable_power=True),
                                 epochs=40)
        training.save_checkpoint(ck, tmp / "mini_power.ckpt")
        digests["train_base.mini_trainable_power.ckpt"] = sha(
            (tmp / "mini_power.ckpt").read_bytes())

        base = training.load_checkpoint(tmp / "mini.ckpt")
        [tuned] = training.finetune(base, [ChannelSource(base.config).instantaneous(3)],
                                    [np.random.default_rng(3)])
        training.save_checkpoint(tuned, tmp / "finetune.ckpt")
        digests["finetune.mini.ckpt"] = sha((tmp / "finetune.ckpt").read_bytes())
        two = dataclasses.replace(base, config=dataclasses.replace(
            base.config, evaluation=dataclasses.replace(base.config.evaluation,
                                                        monte_carlo=2)))
        rows = evaluation.monte_carlo_eval(two).rows
        digests["monte_carlo_eval.mini.rows"] = rows_digest(rows)
        digests["rerun_row.mini.last"] = rows_digest([evaluation.rerun_row(two, rows[-1])])

        digests["gradcheck.mini"] = sha(cli_stdout(["gradcheck", "--config", "mini"]))

        for tag, extra in (("zero", []),
                           ("ckpt", ["--checkpoint", str(tmp / "mini.ckpt"),
                                     "--realization-seed", "3"])):
            out = tmp / f"dump-{tag}"
            cli_stdout(["physics-dump", "--config", "mini", "--out", str(out)] + extra)
            for csv in sorted(out.glob("*.csv")):
                digests[f"physics_dump.{tag}.{csv.name}"] = sha(csv.read_bytes())

        cli_stdout(["evaluate", "--checkpoint", str(tmp / "mini.ckpt"),
                    "--out", str(tmp / "evaluate")])
        for ext in ("csv", "json"):
            digests[f"evaluate.mini.{ext}"] = sha((tmp / "evaluate" / f"evaluate.{ext}")
                                                  .read_bytes())

        mini = miniature_config()
        save_config(dataclasses.replace(
            mini,
            training=dataclasses.replace(mini.training, epochs=40, restarts=1,
                                         batch_size=64, finetune_epochs=5),
            evaluation=dataclasses.replace(mini.evaluation, monte_carlo=2,
                                           test_scale=500, eval_batch=256)),
            tmp / "quick.json")
        cli_stdout(["sweep", "--config", str(tmp / "quick.json"), "--kind", "layers",
                    "--grid", "0,1", "--out", str(tmp / "sweep")])
        for ext in ("csv", "json"):
            digests[f"sweep.layers.{ext}"] = sha((tmp / "sweep" / f"sweep_layers.{ext}")
                                                 .read_bytes())

    links = []
    for config in (miniature_config(), reference_config()):
        config = dataclasses.replace(config, channel=dataclasses.replace(
            config.channel, si_shadowing_db=3.0))
        draws = [realize_channels(config, np.random.default_rng(seed)) for seed in range(5)]
        draws.append(ChannelSource(config).instantaneous(3))
        links += [draw.link(*key).tobytes() for draw in draws for key in LINK_ORDER]
    digests["realize_channels.si_shadowed.links"] = sha(b"".join(links))
    return digests


def main():
    json.dump(fingerprint(), sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")


if __name__ == "__main__":
    main()
