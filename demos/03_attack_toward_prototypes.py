"""The pseudo-replay attack: new-task samples pulled toward old prototypes.

Trains the initial task, samples replay candidates from the next task's
data, perturbs them, and prints the feature-to-prototype distance
distribution before and after (the engine's core mechanism).
"""

import numpy as np

from advreplay import config as CFG
from advreplay import model as M
from advreplay import replay as R
from advreplay import runner
from advreplay import train as TR

cfg = CFG.load_config()
stream = runner.stream_from_config(cfg)
rng = np.random.default_rng(0)

extractor = M.default_extractor(16, 32, rng, hidden=(64, 48))
head = M.init_head(stream.class_groups[0], 32, rng)
state = M.ModelState(extractor, head, None, 0)
print("training task 0 ...")
state = TR.train_initial(state, stream.train[0], TR.LossConfig(),
                         TR.OptimConfig(lr=0.1, weight_decay=5e-4, epochs=30), rng)

stats = TR.compute_class_stats(state.extractor, stream.train[0])
family = CFG.build_family(cfg)

target_class, (mu, _) = next(iter(stats.items()))
# the class's bank: its 64 candidates, replayed under their augmentation policies
rows = R.build_candidate_set(state.extractor, stream.train[1], {target_class: mu}, 64, rng,
                             family=family)[0]

attack = R.AttackConfig(alpha=cfg["attack"]["alpha"], n_attack=cfg["attack"]["n_attack"])
perturbed = R.adversarial_attack(state.extractor, rows, np.tile(mu, (64, 1)), attack)

pre = np.linalg.norm(M.features(state.extractor, rows) - mu, axis=1)
post = np.linalg.norm(M.features(state.extractor, perturbed) - mu, axis=1)

print(f"\ndistances to prototype of class {target_class} (64 candidates)")
print(f"{'':>10} {'median':>8} {'mean':>8} {'max':>8}")
print(f"{'before':>10} {np.median(pre):8.2f} {pre.mean():8.2f} {pre.max():8.2f}")
print(f"{'after':>10} {np.median(post):8.2f} {post.mean():8.2f} {post.max():8.2f}")

edges = np.linspace(0, pre.max() * 1.05, 13)
for lo, hi in zip(edges[:-1], edges[1:]):
    bar_pre = "#" * int(((pre >= lo) & (pre < hi)).sum())
    bar_post = "*" * int(((post >= lo) & (post < hi)).sum())
    print(f"{lo:5.1f}-{hi:5.1f} | before {bar_pre:<20} after {bar_post}")

print("\ninput perturbation is unconstrained but modest:")
print("mean |x_adv - x| per sample:",
      np.round(np.linalg.norm(perturbed - rows, axis=1).mean(), 3))
