"""Monte Carlo BER power sweep with and without the metasurface stacks:
trains both arms, fine-tunes per realization, and tabulates median BER
versus transmit power.

Run: python demos/05_power_sweep.py        (about 15 seconds)
"""

from dataclasses import replace

import simfd.evaluation as ev
import simfd.training as training
from simfd.config import miniature_config

cfg = miniature_config()
cfg = replace(cfg, evaluation=replace(cfg.evaluation, monte_carlo=3,
                                      test_scale=4000))

reports = {}
for label, config in (("with stacks", cfg),
                      ("no stacks", ev.baseline_conventional(cfg))):
    print(f"training base model: {label} ...")
    base = training.train_base(config)
    reports[label] = ev.monte_carlo_eval(base)

print(f"\n{'power':>8} | {'with stacks':>22} | {'no stacks':>22}")
print(f"{'dBm':>8} | {'median':>10} {'mean':>10} | {'median':>10} {'mean':>10}")
rows = {label: {a['power_dbm']: a for a in report.aggregates()}
        for label, report in reports.items()}
for power in cfg.evaluation.power_sweep_dbm:
    sim = rows["with stacks"][power]
    conv = rows["no stacks"][power]
    print(f"{power:8.1f} | {sim['median_ber']:10.5f} {sim['mean_ber']:10.5f} "
          f"| {conv['median_ber']:10.5f} {conv['mean_ber']:10.5f}")

reports["with stacks"].to_csv("sweep_with_stacks.csv")
reports["no stacks"].to_csv("sweep_no_stacks.csv")
print("\nwrote sweep_with_stacks.csv / sweep_no_stacks.csv")
print("every row carries its reproducing seed; rerun any of them with "
      "simfd.evaluation.rerun_row")
