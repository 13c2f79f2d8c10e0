"""Memory census of one training step, to show what a step holds.

Prints one Markdown table row per step: the node count and the node values
of its loss graph, the peak that `tracemalloc` reads within one warm step
and what it still holds after the step returns, the loss graph kept alive
as `fit` keeps it until the next step. Both are counted from what was
allocated just before the step. The steps are `reference` at R = 1 and at
R = 10, and `mini` at R = 15: R runs stacked on pinned realizations, as
`monte_carlo_eval` fine-tunes them. A step is the body of `fit`'s step
through public names: forward, BCE, backward and one AdamW update.

Run it against two trees and compare the tables:

    PYTHONPATH=<tree>/src python tools/step_memory.py

`tracemalloc` counts numpy's array buffers, not BLAS's own work space, so
the numbers do not depend on the BLAS thread count.
"""

import tracemalloc

import numpy as np

from simfd import autograd, emnn, training
from simfd.channel import ChannelRealization, ChannelSource, receiver_noise
from simfd.config import miniature_config, reference_config

MIB = 2.0 ** 20


def step(model, opt, draws, lr):
    """One training step of an ensemble on its runs' (realization, batch,
    noise) draws; returns the per-run losses, which keep the graph alive."""
    realizations, blocks, noise = zip(*draws)
    bits = np.stack([b.bits for b in blocks])
    logits = model.forward(bits, np.stack([b.power_dbm for b in blocks]),
                           ChannelRealization.stack(realizations), training=True,
                           noise_override=[np.stack(n) for n in zip(*noise)])
    losses = training.bce_loss(bits, logits)
    autograd.backward(autograd.reduce_sum(losses))
    opt.step(lr)
    return losses


def census(config, runs):
    """(nodes, node values, peak in step, held after) of one warm step, in
    MiB, for `runs` runs stacked on realizations `instantaneous(0..runs-1)`."""
    source = ChannelSource(config)
    rngs = [np.random.default_rng(seed) for seed in range(runs)]
    model = emnn.Emnn(config, params=emnn.ParamStore.stack(
        [emnn.init_params(config, rng) for rng in rngs]))
    opt = training.AdamW(model.params, weight_decay=config.training.weight_decay)
    draws = [(source.instantaneous(seed), training.sample_batch(rng, config),
              receiver_noise(config, config.training.batch_size, rng))
             for seed, rng in enumerate(rngs)]
    lr = config.training.finetune_learning_rate
    step(model, opt, draws, lr)  # warm-up; its graph is dropped here
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        losses = step(model, opt, draws, lr)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    nodes = autograd.topo_order(losses)
    return (len(nodes), sum(node.data.nbytes for node in nodes) / MIB,
            (peak - base) / MIB, (held - base) / MIB)


def main():
    print("| step | nodes | node values | peak in step | held after |")
    print("| --- | --- | --- | --- | --- |")
    for name, config, runs in (("reference", reference_config(), 1),
                               ("reference", reference_config(), 10),
                               ("mini", miniature_config(), 15)):
        nodes, values, peak, held = census(config, runs)
        print(f"| `{name}`, R = {runs} | {nodes} | {values:.2f} MiB "
              f"| {peak:.1f} MiB | {held:.1f} MiB |")


if __name__ == "__main__":
    main()
