"""Trainable layers, the network and the loss.

Every layer follows the same protocol: forward(x, keep_cache=True) keeps what
its backward reads, in the smallest exact form, and forward(x) keeps nothing;
backward(dy) returns dx and fills per-parameter gradients, which gradients()
hands over and clears. A Network holds one
layer branch per input and a shared head over the branches' concatenated
outputs; a single-input network is one branch holding every layer. Networks
skip dx of the layers that read the input chips: nothing uses a gradient of
the data. A network's infer() is the forward-only pass: no layer computes or
keeps a cache, and it can predict every quarter turn of its input rows at once.
Shapes are batched, channel-last: images (N, H, W, C), features (N, D),
predictions (N, C).
"""

from __future__ import annotations

import math
import struct

import numpy as np

from . import tensor
from .errors import DataError
from .tensor import DTYPE

PRED_CLAMP_FLOOR = 1e-7


def glorot_uniform(rng: np.random.Generator, shape, fan_in: int, fan_out: int) -> np.ndarray:
    lim = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-lim, lim, size=shape).astype(DTYPE)


class Layer:
    """What every layer shares: the cache slot, config and parameters.

    forward(x, keep_cache=True) keeps what backward reads and nothing more:
    Conv its im2col columns, MaxPool2 a bool mask of each window's routed
    maximum, ReLU a bool mask of its positive outputs, Dense its input,
    Softmax its output, Flatten its input's shape. Without keep_cache a
    forward computes and keeps none of it. A layer with parameters lists
    their attribute names in _param_names; its backward stores each one's
    gradient as grad_<name>, which lives until gradients() hands it over.
    config() gives the constructor arguments, which the .fnet format stores.
    """

    kind: str
    _param_names: tuple[str, ...] = ()
    _cache = None  # what forward keeps for backward; None outside a forward/backward pair

    def config(self) -> tuple:
        return ()

    def parameters(self) -> list:
        return [getattr(self, name) for name in self._param_names]

    def gradients(self) -> list:
        """Hand over the gradients the last backward filled; the layer keeps none of them."""
        return [vars(self).pop("grad_" + name) for name in self._param_names]

    def _take_cache(self):
        """Return what forward cached and clear it, so backward keeps nothing alive."""
        cache, self._cache = self._cache, None
        return cache


class Conv(Layer):
    """3x3-style convolution, stride 1, `same` zero padding: pad, im2col, one tensor.matmul GEMM. The kernel size
    k is odd (fusion builds k=3; load_network refuses an even one)."""

    kind = "conv"
    _param_names = ("weights", "bias")

    def __init__(self, k: int, cin: int, cout: int, rng: np.random.Generator | None = None):
        self.k, self.cin, self.cout = k, cin, cout
        fan = k * k
        if rng is None:
            self.weights = np.zeros((k, k, cin, cout), dtype=DTYPE)
        else:
            self.weights = glorot_uniform(rng, (k, k, cin, cout), fan * cin, fan * cout)
        self.bias = np.zeros(cout, dtype=self.weights.dtype)

    def config(self):
        return (self.k, self.cin, self.cout)

    def forward(self, x: np.ndarray, keep_cache: bool = False, turns: int = 1) -> np.ndarray:
        """The convolution of x; with turns > 1, that of every row of x turned 0..turns-1 quarter turns.

        keep_cache keeps the im2col columns, which backward reads (unfolding
        them again there measured 1-5 ms slower per step). A turned forward
        is for prediction only and keeps no cache. x must then
        hold square images, on which a same-padded conv commutes with quarter
        turns: conv(rot90(x, t), W) == rot90(conv(x, rot90(W, -t)), t). So x
        is unfolded once, one GEMM against the kernel turned back 0..turns-1
        times gives every turn's output, and each turn's block is turned
        forward into the batch, in (row, turn) order. Its values equal the
        stacked turns' to float32 rounding: each output sums the same products
        in another order.
        """
        if x.ndim != 4 or x.shape[3] != self.cin:
            raise DataError(f"Conv({self.cin}->{self.cout}) got input {x.shape}")
        pad = self.k // 2
        n, h, w, _ = x.shape
        xp = np.zeros((n, h + 2 * pad, w + 2 * pad, self.cin), dtype=x.dtype)
        xp[:, pad : pad + h, pad : pad + w] = x
        cols, h_out, w_out = tensor.im2col(xp, self.k)
        kernels = np.concatenate([np.rot90(self.weights, -t).reshape(-1, self.cout) for t in range(turns)], axis=1)
        out = tensor.matmul(cols, kernels, np.tile(self.bias, turns))  # column block t holds turn t, not yet turned
        if turns == 1:
            if keep_cache:
                self._cache = (cols, xp.shape, x.shape)
            return out.reshape(n, h_out, w_out, self.cout)
        out = out.reshape(n, h_out, w_out, turns, self.cout)
        turned = np.empty((n, turns, h_out, w_out, self.cout), dtype=out.dtype)
        for t in range(turns):
            turned[:, t] = np.rot90(out[:, :, :, t], t, axes=(1, 2))
        return turned.reshape(n * turns, h_out, w_out, self.cout)

    def backward(self, dy: np.ndarray, need_dx: bool = True) -> np.ndarray | None:
        """Fill the parameter gradients; return dx, or None when need_dx is False."""
        cols, padded_shape, in_shape = self._take_cache()
        n, h, w, _ = in_shape
        dy_col = dy.reshape(-1, self.cout)
        self.grad_weights = tensor.matmul(cols.T, dy_col).reshape(self.weights.shape)
        # einsum reduces in one contiguous pass; sum(axis=0) loops over rows only Cout long
        self.grad_bias = np.einsum("ij->j", dy_col)
        if not need_dx:
            return None
        taps = self.weights.reshape(self.k * self.k, self.cin, self.cout).transpose(0, 2, 1)
        dxp = tensor.col2im_add(dy_col, taps, padded_shape, self.k)
        pad = self.k // 2
        return dxp[:, pad : pad + h, pad : pad + w, :]


class MaxPool2(Layer):
    kind = "maxpool2"

    def forward(self, x: np.ndarray, keep_cache: bool = False) -> np.ndarray:
        out = tensor.maxpool2(x)
        if keep_cache:
            self._cache = (tensor.maxpool2_route(x, out), x.shape)
        return out

    def backward(self, dy: np.ndarray) -> np.ndarray:
        return tensor.maxpool2_scatter(dy, *self._take_cache())


class Flatten(Layer):
    kind = "flatten"

    def forward(self, x: np.ndarray, keep_cache: bool = False) -> np.ndarray:
        if keep_cache:
            self._cache = x.shape
        return x.reshape(x.shape[0], math.prod(x.shape[1:]))  # numpy cannot size -1 for 0 rows

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

    def forward(self, x: np.ndarray, keep_cache: bool = False) -> np.ndarray:
        if x.ndim != 2 or x.shape[1] != self.nin:
            raise DataError(f"Dense({self.nin}->{self.nout}) got input {x.shape}")
        if keep_cache:
            self._cache = x
        return tensor.matmul(x, self.weights, self.bias)

    def backward(self, dy: np.ndarray) -> np.ndarray:
        x = self._take_cache()
        self.grad_weights = tensor.matmul(x.T, dy)
        self.grad_bias = dy.sum(axis=0)
        return tensor.matmul(dy, self.weights.T)


class ReLU(Layer):
    kind = "relu"

    def forward(self, x: np.ndarray, keep_cache: bool = False) -> np.ndarray:
        y = np.maximum(x, 0)
        if keep_cache:  # backward reads only where the output is positive
            self._cache = y > 0
        return y

    def backward(self, dy: np.ndarray) -> np.ndarray:
        # the output's positive mask is the derivative; multiplying casts True/False to 1/0
        return np.multiply(dy, self._take_cache())


class Softmax(Layer):
    kind = "softmax"

    def forward(self, x: np.ndarray, keep_cache: bool = False) -> np.ndarray:
        # a logit further below its row's maximum than the dtype reaches gives -inf, whose exp is 0, the exact limit
        with np.errstate(over="ignore"):
            z = x - x.max(axis=-1, keepdims=True)
        e = np.exp(z)
        out = e / e.sum(axis=-1, keepdims=True)
        if keep_cache:
            self._cache = out
        return out

    def backward(self, dy: np.ndarray) -> np.ndarray:
        s = self._take_cache()
        return s * (dy - (dy * s).sum(axis=-1, keepdims=True))


_LAYER_KINDS = {cls.kind: cls for cls in (Conv, MaxPool2, Flatten, Dense, ReLU, Softmax)}


def _run_forward(layers, x, keep_cache: bool, turns: int = 1):
    """Run x through the layers and return the output; each layer keeps its cache only with keep_cache.

    keep_cache=False is the forward-only path: no layer computes or keeps
    what a backward would read, so the pass leaves nothing behind for the
    next batch. With turns > 1 (forward-only) x holds unturned rows, and the output is
    that of x's rows each turned 0..turns-1 quarter turns, in (row, turn)
    order: a leading Conv turns them itself (see Conv.forward), any other
    first layer is handed them turned.
    """
    if turns > 1:
        if layers and isinstance(layers[0], Conv):
            x = layers[0].forward(x, turns=turns)
            layers = layers[1:]
        else:
            x = np.stack([np.rot90(x, t, axes=(1, 2)) for t in range(turns)], axis=1).reshape(-1, *x.shape[1:])
    for layer in layers:
        x = layer.forward(x, keep_cache)
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


class Network:
    """One layer branch per input; the branches' outputs, concatenated, feed a
    shared head ending in Softmax. Network(layers) is sequential: with one
    branch the head is appended to it, so a single-input network is one list."""

    def __init__(self, *branches: list, head: list = ()):
        if len(branches) == 1:
            branches, head = [list(branches[0]) + list(head)], []
        self.branches = [list(branch) for branch in branches]
        self.head = list(head)
        self._widths = ()  # each branch's output width in the last forward pass

    def forward_batch(self, inputs) -> np.ndarray:
        """Batched forward pass; every layer keeps what its backward reads."""
        return self._forward(inputs, keep_cache=True)

    def infer(self, inputs, turns: int = 1) -> np.ndarray:
        """Batched forward pass for prediction only: no layer computes or keeps
        a cache, so backward cannot follow it. With turns=1 outputs equal forward_batch's.

        With turns > 1 the inputs hold unturned rows of square chips, and the
        output has one row per row and turn, in (row, turn) order: that of
        forward_batch over every row turned 0..turns-1 quarter turns, to
        float32 rounding.
        Each branch's first Conv unfolds every row once and applies its
        kernel in all turns in one GEMM (see Conv.forward); a branch that
        begins otherwise is handed its rows turned, and outputs equal
        forward_batch's exactly.
        """
        return self._forward(inputs, keep_cache=False, turns=turns)

    def _forward(self, inputs, keep_cache: bool, turns: int = 1) -> np.ndarray:
        inputs = _as_input_list(inputs)
        if len(inputs) != len(self.branches):
            raise DataError(f"this network takes {len(self.branches)} input(s), got {len(inputs)}")
        feats = [_run_forward(branch, x, keep_cache, turns) for branch, x in zip(self.branches, inputs)]
        self._widths = [f.shape[1] for f in feats]
        return _run_forward(self.head, np.concatenate(feats, axis=1), keep_cache)

    def backward(self, dpred: np.ndarray) -> None:
        """Backpropagate through the head, then each branch on its slice of the
        head's input gradient; fills parameter gradients only."""
        dfeat = _run_backward(self.head, dpred) if self.head else dpred
        for branch, dy in zip(self.branches, np.split(dfeat, np.cumsum(self._widths)[:-1], axis=1)):
            _run_backward(branch, dy, need_dx=False)

    def column_bytes(self, height: int, width: int) -> int:
        """Bytes of one sample's widest im2col unfolding on height x width chips.

        Walks each branch's Conv and MaxPool2 layers from the chip size: a Conv
        unfolds k*k*cin values per output pixel (same padding keeps the size),
        a MaxPool2 halves the size, rounding up. train.batch_rows counts it
        `turns` times per row, though Conv.forward(x, turns) unfolds a row once:
        a change would move batch boundaries, and so float32 predictions.
        """
        widest = 0
        for branch in self.branches:
            h, w = height, width
            for layer in branch:
                if isinstance(layer, Conv):
                    widest = max(widest, h * w * layer.k * layer.k * layer.cin * layer.weights.itemsize)
                elif isinstance(layer, MaxPool2):
                    h, w = -(-h // 2), -(-w // 2)
        return widest

    def all_layers(self) -> list:
        return [layer for branch in self.branches for layer in branch] + self.head


def _as_input_list(inputs) -> list:
    return [inputs] if isinstance(inputs, np.ndarray) else list(inputs)


def parameters(net) -> list[np.ndarray]:
    out = []
    for layer in net.all_layers():
        out.extend(layer.parameters())
    return out


def gradients(net) -> list[np.ndarray]:
    """Take every layer's gradients from its last backward, in parameters(net) order; the layers keep none."""
    out = []
    for layer in net.all_layers():
        out.extend(layer.gradients())
    return out


def cross_entropy(pred: np.ndarray, classes) -> float:
    """Mean cross-entropy of the true classes' predictions, clamped to [1e-7, 1] before the log."""
    pred = np.atleast_2d(np.asarray(pred))
    clamped = np.clip(pred, PRED_CLAMP_FLOOR, 1.0)
    return float(-np.log(clamped)[np.arange(len(pred)), classes].mean())


def cross_entropy_grad(pred: np.ndarray, classes) -> np.ndarray:
    """d(mean cross-entropy)/d(pred): -1/(N p) at each row's true class, zero
    elsewhere and inside the clamp's flat region."""
    pred = np.atleast_2d(np.asarray(pred))
    target = np.arange(len(pred)), classes  # (rows, classes) of each row's true class
    p = pred[target]
    grad = np.zeros_like(pred)
    grad[target] = np.where(p >= PRED_CLAMP_FLOOR, -1.0 / np.clip(p, PRED_CLAMP_FLOOR, 1.0), 0.0)
    return grad / pred.shape[0]


# --- checkpoint container ------------------------------------------------
# Binary layout (little-endian): magic "FNET", u16 version=1, u16 reserved,
# u8 net type (0: one branch; 1: two branches), then one section per layer list:
# the branch for type 0; branch A, branch B and the head for type 1. No byte follows the last section.
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
            raise DataError(f"{self.path}: truncated (wanted {n} bytes at offset {self.off})")
        out = self.data[self.off : self.off + n]
        self.off += n
        return out

    def unpack(self, fmt: str):
        return struct.unpack(fmt, self.take(struct.calcsize(fmt)))


def _param_shapes(path: str, kind: str, cfg: tuple) -> list[tuple[int, ...]]:
    """Shapes of the parameters a `kind` layer built from `cfg` owns, found without building it;
    DataError for a config the layer cannot take, an even conv kernel included."""
    if kind == "conv" and len(cfg) == 3:
        k, cin, cout = cfg
        if k % 2 == 0:
            raise DataError(f"{path}: Conv kernel must be odd for same padding, got {k}")
        return [(k, k, cin, cout), (cout,)]
    if kind == "dense" and len(cfg) == 2:
        nin, nout = cfg
        return [(nin, nout), (nout,)]
    if kind not in ("conv", "dense") and not cfg:
        return []
    raise DataError(f"{path}: layer {kind} cannot take {len(cfg)} config value(s)")


def _unpack_section(r: _Reader, section: str) -> list:
    (count,) = r.unpack("<I")
    layers = []
    for index in range(count):
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
        if not all(np.isfinite(p).all() for p in params):
            raise DataError(f"{r.path}: {section} layer {index} ({kind}) has non-finite parameters")
        # the layer's zeroed parameters are only allocated once the file has shown their bytes
        layer = _LAYER_KINDS[kind](*cfg)
        for dst, src in zip(layer.parameters(), params):
            dst[...] = src
        layers.append(layer)
    return layers


def save_network(path, net) -> None:
    """Write type 0 (one section) for one branch, type 1 (branches A, B, head) for two."""
    net_type = len(net.branches) - 1
    sections = net.branches if net_type == 0 else [*net.branches, net.head]
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
        raise DataError(f"{path}: bad magic, not a network checkpoint")
    version, _, net_type = r.unpack("<HHB")
    if version != NET_VERSION:
        raise DataError(f"{path}: checkpoint version {version}, expected {NET_VERSION}")
    if net_type not in (0, 1):
        raise DataError(f"{path}: unknown network type {net_type}")
    sections = [_unpack_section(r, name) for name in (("network",), ("branch A", "branch B", "head"))[net_type]]
    if r.off < len(data):
        raise DataError(f"{path}: {len(data) - r.off} trailing bytes after the last section")
    return Network(*sections) if net_type == 0 else Network(*sections[:2], head=sections[2])
