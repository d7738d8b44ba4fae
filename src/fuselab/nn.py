"""Trainable layers, sequential and two-branch networks, loss, gradient checks.

Every layer follows the same protocol: forward(x) caches what backward needs,
backward(dy) returns dx and fills per-parameter gradients. Networks skip dx of
the layer that reads the input chips: nothing uses a gradient of the data.
A network's infer() is the forward-only pass and leaves no layer cache.
Shapes are batched, channel-last: images (N, H, W, C), features (N, D),
predictions (N, C).
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, field

import numpy as np

from . import tensor
from .errors import BadMagicError, DataError, ShapeError, StaleCacheError, TruncatedPayloadError, VersionMismatchError
from .tensor import DTYPE

PRED_CLAMP_FLOOR = 1e-7


def glorot_uniform(rng: np.random.Generator, shape, fan_in: int, fan_out: int, dtype=DTYPE) -> np.ndarray:
    lim = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-lim, lim, size=shape).astype(dtype)


class Layer:
    """What every layer shares: the cache slot, config, parameters and dtype casts.

    A layer with parameters lists their attribute names in _param_names; its
    backward stores each one's gradient as grad_<name>. config() gives the
    constructor arguments, which the .fnet format stores.
    """

    kind: str
    _param_names: tuple[str, ...] = ()
    _cache = None  # what forward keeps for backward; None outside a forward/backward pair

    def config(self) -> tuple:
        return ()

    def parameters(self) -> list:
        return [getattr(self, name) for name in self._param_names]

    def gradients(self) -> list:
        return [getattr(self, "grad_" + name) for name in self._param_names]

    def astype(self, dtype):
        clone = type(self)(*self.config())
        for name in self._param_names:
            setattr(clone, name, getattr(self, name).astype(dtype))
        return clone

    def _take_cache(self):
        """Return what forward cached and clear it, so a second backward raises."""
        if self._cache is None:
            raise StaleCacheError(f"{type(self).__name__}.backward before forward")
        cache, self._cache = self._cache, None
        return cache


class Conv(Layer):
    """3x3-style convolution, stride 1, `same` zero padding: pad, im2col, one GEMM."""

    kind = "conv"
    _param_names = ("weights", "bias")

    def __init__(self, k: int, cin: int, cout: int, rng: np.random.Generator | None = None):
        if k % 2 == 0:
            raise ShapeError(f"Conv kernel must be odd for same padding, got {k}")
        self.k, self.cin, self.cout = k, cin, cout
        fan = k * k
        if rng is None:
            self.weights = np.zeros((k, k, cin, cout), dtype=DTYPE)
        else:
            self.weights = glorot_uniform(rng, (k, k, cin, cout), fan * cin, fan * cout)
        self.bias = np.zeros(cout, dtype=self.weights.dtype)

    def config(self):
        return (self.k, self.cin, self.cout)

    def forward(self, x: np.ndarray) -> np.ndarray:
        if x.ndim != 4 or x.shape[3] != self.cin:
            raise ShapeError(f"Conv({self.cin}->{self.cout}) got input {x.shape}")
        pad = self.k // 2
        xp = np.pad(x, ((0, 0), (pad, pad), (pad, pad), (0, 0)))
        cols, h_out, w_out = tensor.im2col(xp, self.k)
        out = cols @ self.weights.reshape(-1, self.cout)
        out += self.bias
        self._cache = (cols, xp.shape, x.shape)
        return out.reshape(x.shape[0], h_out, w_out, self.cout)

    def backward(self, dy: np.ndarray, need_dx: bool = True) -> np.ndarray | None:
        """Fill the parameter gradients; return dx, or None when need_dx is False."""
        cols, padded_shape, in_shape = self._take_cache()
        n, h, w, _ = in_shape
        dy_col = dy.reshape(-1, self.cout)
        self.grad_weights = (cols.T @ dy_col).reshape(self.weights.shape)
        # einsum reduces in one contiguous pass; sum(axis=0) loops over rows only Cout long
        self.grad_bias = np.einsum("ij->j", dy_col)
        if not need_dx:
            return None
        taps = self.weights.reshape(self.k * self.k, self.cin, self.cout).transpose(0, 2, 1)
        dxp = tensor.col2im_add(np.matmul(dy_col, taps), padded_shape, self.k)  # tap-major dcols
        pad = self.k // 2
        return dxp[:, pad : pad + h, pad : pad + w, :]


class MaxPool2(Layer):
    kind = "maxpool2"

    def forward(self, x: np.ndarray) -> np.ndarray:
        out = tensor.maxpool2(x)
        self._cache = (x, out)
        return out

    def backward(self, dy: np.ndarray) -> np.ndarray:
        x, out = self._take_cache()
        return tensor.maxpool2_scatter(dy, x, out)


class Flatten(Layer):
    kind = "flatten"

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._cache = x.shape
        return x.reshape(x.shape[0], -1)

    def backward(self, dy: np.ndarray) -> np.ndarray:
        return dy.reshape(self._take_cache())


class Dense(Layer):
    kind = "dense"
    _param_names = ("weights", "bias")

    def __init__(self, nin: int, nout: int, rng: np.random.Generator | None = None):
        self.nin, self.nout = nin, nout
        if rng is None:
            self.weights = np.zeros((nin, nout), dtype=DTYPE)
        else:
            self.weights = glorot_uniform(rng, (nin, nout), nin, nout)
        self.bias = np.zeros(nout, dtype=self.weights.dtype)

    def config(self):
        return (self.nin, self.nout)

    def forward(self, x: np.ndarray) -> np.ndarray:
        if x.ndim != 2 or x.shape[1] != self.nin:
            raise ShapeError(f"Dense({self.nin}->{self.nout}) got input {x.shape}")
        self._cache = x
        return tensor.matmul(x, self.weights) + self.bias

    def backward(self, dy: np.ndarray) -> np.ndarray:
        x = self._take_cache()
        self.grad_weights = tensor.matmul(x.T, dy)
        self.grad_bias = dy.sum(axis=0)
        return tensor.matmul(dy, self.weights.T)


class ReLU(Layer):
    kind = "relu"

    def forward(self, x: np.ndarray) -> np.ndarray:
        # caching the output, not x, lets a following MaxPool2 share the buffer
        y = tensor.relu(x)
        self._cache = y
        return y

    def backward(self, dy: np.ndarray) -> np.ndarray:
        return np.multiply(dy, tensor.relu_grad(self._take_cache()))


class Softmax(Layer):
    kind = "softmax"

    def forward(self, x: np.ndarray) -> np.ndarray:
        z = x - x.max(axis=-1, keepdims=True)
        e = np.exp(z)
        out = e / e.sum(axis=-1, keepdims=True)
        self._cache = out
        return out

    def backward(self, dy: np.ndarray) -> np.ndarray:
        s = self._take_cache()
        return s * (dy - (dy * s).sum(axis=-1, keepdims=True))


_LAYER_KINDS = {cls.kind: cls for cls in (Conv, MaxPool2, Flatten, Dense, ReLU, Softmax)}


def _run_forward(layers, x, keep_cache: bool = True):
    """Run x through the layers and return the output.

    keep_cache=False is the forward-only path: each layer's cache is dropped
    as soon as the layer has returned, so the pass keeps no intermediates for
    a backward that will not come and leaves none behind for the next batch.
    """
    for layer in layers:
        x = layer.forward(x)
        if not keep_cache:
            layer._cache = None
    return x


def _run_backward(layers, dy, need_dx: bool = True):
    """Backpropagate dy from the last layer to the first and return dx.

    need_dx=False is for layers that read the input chips: a leading Conv
    then fills its parameter gradients only, and None is returned.
    """
    for layer in reversed(layers[1:]):
        dy = layer.backward(dy)
    if isinstance(layers[0], Conv):
        return layers[0].backward(dy, need_dx=need_dx)
    return layers[0].backward(dy)


class _Net:
    """Entry points shared by the two network kinds; each supplies n_inputs and _forward."""

    n_inputs: int

    def forward_batch(self, inputs) -> np.ndarray:
        """Batched forward pass; every layer keeps what backward needs."""
        return self._forward(self._input_list(inputs), keep_cache=True)

    def infer(self, inputs) -> np.ndarray:
        """Batched forward pass for prediction only: no layer keeps a cache,
        so backward cannot follow it. Outputs equal forward_batch's."""
        return self._forward(self._input_list(inputs), keep_cache=False)

    def _input_list(self, inputs) -> list:
        inputs = _as_input_list(inputs)
        if len(inputs) != self.n_inputs:
            raise ShapeError(f"this network takes {self.n_inputs} input(s), got {len(inputs)}")
        return inputs


class Network(_Net):
    """Single-input sequential classifier ending in Softmax."""

    n_inputs = 1

    def __init__(self, layers: list):
        self.layers = layers

    def _forward(self, inputs, keep_cache: bool) -> np.ndarray:
        return _run_forward(self.layers, inputs[0], keep_cache)

    def backward(self, dpred: np.ndarray) -> None:
        _run_backward(self.layers, dpred, need_dx=False)

    def all_layers(self):
        return list(self.layers)

    def astype(self, dtype) -> "Network":
        return Network([l.astype(dtype) for l in self.layers])


class TwoBranchNetwork(_Net):
    """Two convolutional feature branches concatenated into a shared head."""

    n_inputs = 2

    def __init__(self, branch_a: list, branch_b: list, head: list):
        self.branch_a = branch_a
        self.branch_b = branch_b
        self.head = head
        self._split = None

    def _forward(self, inputs, keep_cache: bool) -> np.ndarray:
        fa = _run_forward(self.branch_a, inputs[0], keep_cache)
        fb = _run_forward(self.branch_b, inputs[1], keep_cache)
        self._split = fa.shape[1] if keep_cache else None
        return _run_forward(self.head, np.concatenate([fa, fb], axis=1), keep_cache)

    def backward(self, dpred: np.ndarray) -> None:
        if self._split is None:
            raise StaleCacheError("TwoBranchNetwork.backward before forward")
        dfeat = _run_backward(self.head, dpred)
        split = self._split
        self._split = None
        _run_backward(self.branch_a, dfeat[:, :split], need_dx=False)
        _run_backward(self.branch_b, dfeat[:, split:], need_dx=False)

    def all_layers(self):
        return list(self.branch_a) + list(self.branch_b) + list(self.head)

    def astype(self, dtype) -> "TwoBranchNetwork":
        return TwoBranchNetwork(
            [l.astype(dtype) for l in self.branch_a],
            [l.astype(dtype) for l in self.branch_b],
            [l.astype(dtype) for l in self.head],
        )


def _as_input_list(inputs):
    if isinstance(inputs, np.ndarray):
        return [inputs]
    return list(inputs)


def parameters(net) -> list[np.ndarray]:
    out = []
    for layer in net.all_layers():
        out.extend(layer.parameters())
    return out


def gradients(net) -> list[np.ndarray]:
    out = []
    for layer in net.all_layers():
        out.extend(layer.gradients())
    return out


def n_params(net) -> int:
    return sum(p.size for p in parameters(net))


def forward(net, inputs) -> np.ndarray:
    """Run one unbatched sample through the network, returning a length-C vector."""
    return net.infer([x[None] for x in _as_input_list(inputs)])[0]


def _validate_one_hot(truth: np.ndarray) -> None:
    ok = np.all((truth == 0.0) | (truth == 1.0)) and np.all(truth.sum(axis=-1) == 1.0)
    if not ok:
        raise ValueError("truth must be one-hot (a single 1.0 per row, rest 0.0)")


def cross_entropy(pred: np.ndarray, truth: np.ndarray) -> float:
    """Mean cross-entropy; predictions clamped to [1e-7, 1] before the log."""
    pred = np.atleast_2d(np.asarray(pred))
    truth = np.atleast_2d(np.asarray(truth))
    if pred.shape != truth.shape:
        raise ShapeError(f"pred {pred.shape} vs truth {truth.shape}")
    _validate_one_hot(truth)
    clamped = np.clip(pred, PRED_CLAMP_FLOOR, 1.0)
    return float(-(truth * np.log(clamped)).sum(axis=-1).mean())


def cross_entropy_grad(pred: np.ndarray, truth: np.ndarray) -> np.ndarray:
    """d(mean cross-entropy)/d(pred); zero inside the clamp's flat region."""
    pred = np.atleast_2d(np.asarray(pred))
    truth = np.atleast_2d(np.asarray(truth))
    clamped = np.clip(pred, PRED_CLAMP_FLOOR, 1.0)
    grad = np.where(pred >= PRED_CLAMP_FLOOR, -truth / clamped, 0.0)
    return (grad / pred.shape[0]).astype(pred.dtype)


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


def gradient_check(net, inputs, truth, epsilon: float = 1e-3, tolerance: float = 1e-4) -> GradientCheckReport:
    """Compare analytic parameter gradients against central finite differences.

    The whole computation is promoted to float64; the net must stay small
    (every parameter is perturbed twice).
    """
    if n_params(net) > 10_000:
        raise ValueError(f"gradient_check limited to 1e4 params, net has {n_params(net)}")
    net64 = net.astype(np.float64)
    inputs64 = [np.asarray(x, dtype=np.float64)[None] for x in _as_input_list(inputs)]
    truth64 = np.asarray(truth, dtype=np.float64)[None]

    pred = net64.forward_batch(inputs64)
    net64.backward(cross_entropy_grad(pred, truth64))

    def loss() -> float:
        return cross_entropy(net64.forward_batch(inputs64), truth64)

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


# --- checkpoint container ------------------------------------------------
# Binary layout (little-endian): magic "FNET", u16 version=1, u16 reserved,
# u8 net type (0 sequential, 1 two-branch), then one section per layer list.
# Section: u32 layer count; per layer: u8 kind tag, u8 #config, u32 config
# values, u8 #params; per param: u8 ndim, u32 extents, float32 payload.

NET_MAGIC = b"FNET"
NET_VERSION = 1
_KIND_TAGS = {"conv": 1, "maxpool2": 2, "flatten": 3, "dense": 4, "relu": 5, "softmax": 6}
_TAG_KINDS = {v: k for k, v in _KIND_TAGS.items()}


def _pack_section(layers) -> bytes:
    chunks = [struct.pack("<I", len(layers))]
    for layer in layers:
        cfg = layer.config()
        params = layer.parameters()
        chunks.append(struct.pack("<BB", _KIND_TAGS[layer.kind], len(cfg)))
        chunks.append(struct.pack(f"<{len(cfg)}I", *cfg) if cfg else b"")
        chunks.append(struct.pack("<B", len(params)))
        for p in params:
            arr = np.ascontiguousarray(p, dtype=np.float32)
            chunks.append(struct.pack("<B", arr.ndim))
            chunks.append(struct.pack(f"<{arr.ndim}I", *arr.shape))
            chunks.append(arr.tobytes())
    return b"".join(chunks)


class _Reader:
    def __init__(self, data: bytes, path: str):
        self.data = data
        self.off = 0
        self.path = path

    def take(self, n: int) -> bytes:
        if self.off + n > len(self.data):
            raise TruncatedPayloadError(f"{self.path}: truncated (wanted {n} bytes at offset {self.off})")
        out = self.data[self.off : self.off + n]
        self.off += n
        return out

    def unpack(self, fmt: str):
        return struct.unpack(fmt, self.take(struct.calcsize(fmt)))


def _param_shapes(path: str, kind: str, cfg: tuple) -> list[tuple[int, ...]]:
    """Shapes of the parameters a `kind` layer built from `cfg` owns, found without building it."""
    if kind == "conv" and len(cfg) == 3:
        k, cin, cout = cfg
        return [(k, k, cin, cout), (cout,)]
    if kind == "dense" and len(cfg) == 2:
        nin, nout = cfg
        return [(nin, nout), (nout,)]
    if kind not in ("conv", "dense") and not cfg:
        return []
    raise DataError(f"{path}: layer {kind} cannot take {len(cfg)} config value(s)")


def _unpack_section(r: _Reader) -> list:
    (count,) = r.unpack("<I")
    layers = []
    for _ in range(count):
        tag, ncfg = r.unpack("<BB")
        if tag not in _TAG_KINDS:
            raise DataError(f"{r.path}: unknown layer kind tag {tag}")
        kind = _TAG_KINDS[tag]
        cfg = r.unpack(f"<{ncfg}I") if ncfg else ()
        expected = _param_shapes(r.path, kind, cfg)
        (nparams,) = r.unpack("<B")
        params = []
        for _ in range(nparams):
            (ndim,) = r.unpack("<B")
            shape = r.unpack(f"<{ndim}I")
            params.append(np.frombuffer(r.take(4 * math.prod(shape)), dtype="<f4").reshape(shape))
        if [p.shape for p in params] != expected:
            raise DataError(
                f"{r.path}: layer {kind}{cfg} expects params {expected}, file has {[p.shape for p in params]}"
            )
        # the layer's zeroed parameters are only allocated once the file has shown their bytes
        layer = _LAYER_KINDS[kind](*cfg)
        for dst, src in zip(layer.parameters(), params):
            dst[...] = src
        layers.append(layer)
    return layers


def save_network(path, net) -> None:
    sections = [net.layers] if isinstance(net, Network) else [net.branch_a, net.branch_b, net.head]
    net_type = 0 if isinstance(net, Network) else 1
    blob = b"".join([
        NET_MAGIC,
        struct.pack("<HHB", NET_VERSION, 0, net_type),
        *[_pack_section(s) for s in sections],
    ])
    with open(path, "wb") as fh:
        fh.write(blob)


def load_network(path):
    with open(path, "rb") as fh:
        data = fh.read()
    r = _Reader(data, str(path))
    if r.take(4) != NET_MAGIC:
        raise BadMagicError(f"{path}: bad magic, not a network checkpoint")
    version, _, net_type = r.unpack("<HHB")
    if version != NET_VERSION:
        raise VersionMismatchError(f"{path}: checkpoint version {version}, expected {NET_VERSION}")
    if net_type == 0:
        return Network(_unpack_section(r))
    if net_type == 1:
        return TwoBranchNetwork(_unpack_section(r), _unpack_section(r), _unpack_section(r))
    raise DataError(f"{path}: unknown network type {net_type}")
