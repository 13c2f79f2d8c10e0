"""Monte Carlo BER power sweep with and without the metasurface stacks:
runs the protocol (train a base model, fine-tune per realization, sweep
power) for both arms and tabulates median BER versus transmit power.

Run: python demos/05_power_sweep.py        (about 15 seconds)
"""

from dataclasses import replace

import simfd.evaluation as ev
from simfd.config import miniature_config

cfg = miniature_config()
cfg = replace(cfg, evaluation=replace(cfg.evaluation, monte_carlo=3,
                                      test_scale=4000))
conventional = ev.baseline_conventional(cfg)

print("training and evaluating both arms ...")
report = ev.protocol([cfg, conventional])

print(f"\n{'power':>8} | {'with stacks':>22} | {'no stacks':>22}")
print(f"{'dBm':>8} | {'median':>10} {'mean':>10} | {'median':>10} {'mean':>10}")
aggs = {(a["label"], a["power_dbm"]): a for a in report.aggregates()}
for power in cfg.evaluation.power_sweep_dbm:
    sim = aggs[cfg.label, power]
    conv = aggs[conventional.label, power]
    print(f"{power:8.1f} | {sim['median_ber']:10.5f} {sim['mean_ber']:10.5f} "
          f"| {conv['median_ber']:10.5f} {conv['mean_ber']:10.5f}")

report.to_csv("power_sweep.csv")
print(f"\nwrote power_sweep.csv: label {cfg.label} with stacks, "
      f"{conventional.label} without")
print("every row carries its reproducing seed; rerun any of them with "
      "simfd.evaluation.rerun_row")
