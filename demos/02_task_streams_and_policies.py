"""Task streams and recorded augmentation policies.

Shows cold vs warm class layouts, the determinism guarantees, and the
record-and-replay augmentation family: a policy is a handful of recorded
scalars, and replaying it on the same sample gives the same bits, so a
task's replay bank is rebuilt from the new task's rows, never stored.
"""

import numpy as np

from advreplay import data as D

spec = D.SyntheticSpec(n_classes=20, input_dim=16, radius=7.0, cluster_std=1.0,
                       n_train=50, n_val=10, n_test=20)

cold = D.make_task_stream(spec, 5, "cold", seed=0, class_shuffle_seed=1993)
print("cold-start groups:", [len(g) for g in cold.class_groups])

warm = D.make_task_stream(spec, 6, "warm", seed=0, class_shuffle_seed=1993)
print("warm-start groups:", [len(g) for g in warm.class_groups])

again = D.make_task_stream(spec, 5, "cold", seed=0, class_shuffle_seed=1993)
print("same seeds give bit-identical data:",
      np.array_equal(cold.train[0].x, again.train[0].x))

# policies are drawn once, recorded, and replayed deterministically
family = D.AugFamily(input_dim=16)
rng = np.random.default_rng(7)
policy = D.sample_policies(rng, family, 1)[0]
print("\nrecorded policy:")
for name in D.POLICY_DTYPE.names:
    print(f"  {name:<12} {policy[name]}")

x = rng.normal(size=16)
first = D.apply_policy(x, policy)
second = D.apply_policy(x, policy)
print("replay is bit-identical:", np.array_equal(first, second))

print("record size:", len(policy.tobytes()), "bytes")
