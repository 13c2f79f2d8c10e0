"""Train the desk-scale system end to end: base model on the statistical
channel, fine-tune on a frozen realization, and compare against training
from scratch. Saves the loss curves as CSV (and a PNG when matplotlib is
available).

Run: python demos/04_train_and_transfer.py        (about 10 seconds)
"""

import csv

import numpy as np

import simfd.emnn as emnn
import simfd.evaluation as ev
import simfd.training as training
from simfd.channel import ChannelSource
from simfd.config import miniature_config

cfg = miniature_config()
print(f"config: {cfg.n_bits} bits, {cfg.geometry.terminal(1).tx_units}-unit "
      f"stacks, {cfg.training.epochs} epochs, batch {cfg.training.batch_size}")

print("\ntraining the base model on the statistical channel...")
base = training.train_base(cfg)
base_sm = training.smoothed([h[1] for h in base.history], 50)
print(f"  smoothed loss: epoch 50 = {base_sm[49]:.3f}, "
      f"epoch {len(base_sm)} = {base_sm[-1]:.3f}")

source = ChannelSource(cfg)
seed = ev.derive_seed(cfg.evaluation.seed, 0)
realization = source.instantaneous(seed)

print("\nfine-tuning on one frozen realization...")
[tuned] = training.finetune(base, [realization], [np.random.default_rng(seed)])
ft_sm = training.smoothed([h[1] for h in tuned.history], 50)
print(f"  fine-tune loss: start = {ft_sm[0]:.3f}, final = {ft_sm[-1]:.3f}")

print("training the same realization from scratch for comparison...")
rngs = [np.random.default_rng(7)]
model = emnn.Emnn(cfg, params=emnn.ParamStore.stack([emnn.init_params(cfg, rngs[0])]))
[scratch] = training.fit(model, rngs, cfg.training.epochs,
                         lambda epoch: training.lr_schedule(epoch, cfg.training),
                         lambda r: realization)
scratch_sm = training.smoothed([h[1] for h in scratch.history], 50)
print(f"  from-scratch loss after {len(scratch_sm)} epochs = {scratch_sm[-1]:.3f}")
print(f"  the fine-tune started below that after "
      f"{next((i + 1 for i, v in enumerate(ft_sm) if v <= scratch_sm[-1]), '?')} "
      f"epoch(s)")

model = emnn.Emnn(cfg, params=tuned.params)
for power in cfg.evaluation.power_sweep_dbm:
    _, _, ber = ev.evaluate(model, realization, power, 10000,
                            np.random.default_rng(1))
    print(f"  BER at {power:4.1f} dBm: {ber:.5f}")

with open("train_curves.csv", "w", newline="") as fh:
    writer = csv.writer(fh)
    writer.writerow(["epoch", "base", "finetune", "scratch"])
    for i in range(max(len(base_sm), len(ft_sm), len(scratch_sm))):
        writer.writerow([
            i,
            base_sm[i] if i < len(base_sm) else "",
            ft_sm[i] if i < len(ft_sm) else "",
            scratch_sm[i] if i < len(scratch_sm) else "",
        ])
print("\nwrote train_curves.csv")

try:
    import matplotlib
    matplotlib.use("Agg")
    import matplotlib.pyplot as plt

    plt.figure(figsize=(7, 4))
    plt.plot(base_sm, label="base (statistical channel)")
    plt.plot(ft_sm, label="fine-tune (frozen realization)")
    plt.plot(scratch_sm, label="from scratch (same realization)")
    plt.xlabel("epoch")
    plt.ylabel("smoothed BCE loss")
    plt.legend()
    plt.grid(alpha=0.3)
    plt.tight_layout()
    plt.savefig("train_curves.png", dpi=130)
    print("wrote train_curves.png")
except ImportError:
    pass
