"""Finite-difference gradient checking for fuselab networks, used by the tests.

gradient_check runs a float64 copy of a network (float64_copy; the kernels
are dtype-generic) and compares every parameter's analytic gradient with
central finite differences of one sample's cross-entropy.
"""

import copy
from dataclasses import dataclass, field

import numpy as np

from fuselab import nn


def float64_copy(net: nn.Network) -> nn.Network:
    """A deep copy of the network whose parameters are float64; the original is untouched."""
    clone = copy.deepcopy(net)
    for layer in clone.all_layers():
        for name in layer._param_names:
            setattr(layer, name, getattr(layer, name).astype(np.float64))
    return clone


@dataclass
class GradientCheckReport:
    per_layer: dict = field(default_factory=dict)  # layer label -> max relative error
    max_rel_error: float = 0.0
    tolerance: float = 1e-4

    @property
    def passed(self) -> bool:
        return self.max_rel_error < self.tolerance

    def __str__(self):
        lines = [f"gradient check: max rel err {self.max_rel_error:.3e} "
                 f"({'PASS' if self.passed else 'FAIL'} at {self.tolerance:g})"]
        for name, err in self.per_layer.items():
            lines.append(f"  {name}: {err:.3e}")
        return "\n".join(lines)


def gradient_check(net, inputs, target: int, epsilon: float = 1e-3, tolerance: float = 1e-4) -> GradientCheckReport:
    """Compare analytic parameter gradients against central finite differences
    of the cross-entropy of one sample whose true class is `target`.

    The whole computation is promoted to float64; the net must stay small
    (every parameter is perturbed twice).
    """
    n_params = sum(p.size for p in nn.parameters(net))
    if n_params > 10_000:
        raise ValueError(f"gradient_check limited to 1e4 params, net has {n_params}")
    net64 = float64_copy(net)
    inputs64 = [np.asarray(x, dtype=np.float64)[None] for x in nn._as_input_list(inputs)]
    classes = np.array([target])

    pred = net64.forward_batch(inputs64)
    net64.backward(nn.cross_entropy_grad(pred, classes))

    def loss() -> float:
        return nn.cross_entropy(net64.forward_batch(inputs64), classes)

    report = GradientCheckReport(tolerance=tolerance)
    for li, layer in enumerate(net64.all_layers()):
        grads = layer.gradients()
        if not grads:
            continue
        worst = 0.0
        for param, analytic in zip(layer.parameters(), grads):
            flat = param.reshape(-1)
            fd = np.empty_like(flat)
            for i in range(flat.size):
                orig = flat[i]
                flat[i] = orig + epsilon
                up = loss()
                flat[i] = orig - epsilon
                down = loss()
                flat[i] = orig
                fd[i] = (up - down) / (2.0 * epsilon)
            a = analytic.reshape(-1)
            rel = np.abs(a - fd) / np.maximum(np.abs(a) + np.abs(fd), 1e-6)
            worst = max(worst, float(rel.max()))
        report.per_layer[f"{li}:{type(layer).__name__}"] = worst
        report.max_rel_error = max(report.max_rel_error, worst)
    return report
