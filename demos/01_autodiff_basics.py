"""Tour of the tensor engine: building graphs, taking gradients, checking them.

This little reverse-mode engine is the gradient oracle of the package:
training and the attack run hand-written plain-numpy forward and backward
passes, and the tests check those op for op against the gradients taped
here, so it is worth seeing in isolation first.
"""

import numpy as np

from advreplay import tensor as T
from advreplay.tensor import Tensor

# tensors are immutable float64 arrays; ops build a fresh graph each call
x = Tensor([[1.0, -2.0], [0.5, 3.0]])
w = Tensor(np.array([[0.2, -0.1], [0.4, 0.7]]))

logits = T.matmul(T.relu(x), w)
probs = T.softmax(logits)
print("softmax rows sum to one:", probs.data.sum(axis=1))

# a scalar output can be differentiated w.r.t. any leaves; here the mean
# squared distance of each softmax row to its one-hot target
def sq_dist_to_onehot(p):
    d = T.sub(p, Tensor(np.eye(2)))
    return T.tmean(T.tsum(T.mul(d, d), axis=1))


loss = sq_dist_to_onehot(probs)
value, grads = T.value_and_grad(loss, [x, w])
print("loss value:", value)
print("d loss / d x:\n", grads[x].data)

# spot-check one coordinate against central finite differences
step = 1e-5


def loss_at(arr):
    p = T.softmax(T.matmul(T.relu(Tensor(arr)), w))
    return T.value_and_grad(sq_dist_to_onehot(p), [])[0]


probe = x.data.copy()
probe[0, 0] += step
up = loss_at(probe)
probe[0, 0] -= 2 * step
down = loss_at(probe)
fd = (up - down) / (2 * step)
print(f"autodiff grad[0,0] = {grads[x].data[0, 0]:+.8f}")
print(f"finite difference  = {fd:+.8f}")

# the squared-distance loss used by the attack: d/dx ||x - mu||^2 = 2 (x - mu)
xa = Tensor([1.0, 0.0])
diff = T.sub(xa, Tensor([0.0, 0.0]))
_, g = T.value_and_grad(T.tsum(T.mul(diff, diff)), [xa])
print("attack-loss gradient at (1,0) toward origin:", g[xa].data)
