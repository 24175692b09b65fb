"""Named parameter sets: Glorot init and freezing."""

from __future__ import annotations

from typing import Iterator, Sequence

import numpy as np

from .tensor import Tensor


class ParameterSet:
    """Ordered mapping name -> trainable leaf tensor; `seed` fixes its Glorot draws."""

    def __init__(self, seed: int | Sequence[int]):
        self._params: dict[str, Tensor] = {}
        self._rng = np.random.default_rng(seed)

    def add(self, name: str, data: np.ndarray) -> Tensor:
        if name in self._params:
            raise ValueError(f"duplicate parameter name {name!r}")
        t = Tensor(np.array(data, dtype=np.float64, order="C"), requires_grad=True)
        self._params[name] = t
        return t

    def weight(self, name: str, fan_in: int, fan_out: int) -> Tensor:
        """Glorot-uniform (fan_in, fan_out) matrix: U(+-sqrt(6/(fan_in+fan_out)))."""
        if fan_in < 1 or fan_out < 1:
            raise ValueError(f"weight {name!r}: dimensions must be positive")
        bound = np.sqrt(6.0 / (fan_in + fan_out))
        return self.add(name, self._rng.uniform(-bound, bound, size=(fan_in, fan_out)))

    def bias(self, name: str, n: int) -> Tensor:
        return self.add(name, np.zeros((1, n)))

    def __getitem__(self, name: str) -> Tensor:
        return self._params[name]

    def items(self):
        return self._params.items()

    def names(self) -> list[str]:
        return list(self._params)

    def tensors(self) -> Iterator[Tensor]:
        return iter(self._params.values())

    def freeze(self) -> None:
        """Make the parameters read-only constants: ops on them record nothing."""
        for t in self._params.values():
            t.data.flags.writeable = False
            t.requires_grad = False


def init_params(layer_sizes: Sequence[int], seed: int | Sequence[int]) -> ParameterSet:
    """Dense-stack parameters for consecutive layer sizes.

    For sizes [n0, n1, ..., nk] creates Glorot weights w0..w{k-1} of shape
    (n_i, n_{i+1}) and zero biases b0..b{k-1}; deterministic per seed.
    """
    if len(layer_sizes) < 2 or any(n < 1 for n in layer_sizes):
        raise ValueError(f"layer sizes must be >= 2 positive entries, got {layer_sizes}")
    params = ParameterSet(seed=seed)
    for i, (n_in, n_out) in enumerate(zip(layer_sizes[:-1], layer_sizes[1:])):
        params.weight(f"w{i}", n_in, n_out)
        params.bias(f"b{i}", n_out)
    return params
