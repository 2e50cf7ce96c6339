"""Shared, immutable quantized-weight store for the serving cluster.

Quantization happens **once**, in the cluster parent: every network's
parameters are drawn and quantized with the exact :class:`~repro.serve.
engine.ModelRegistry` recipe (a pure function of ``(network, seed)``),
packed into one ``multiprocessing.shared_memory`` segment, and described
by a small picklable *descriptor*.  Worker processes attach the segment
and reconstruct zero-copy numpy views, so N replicas of a network share
one physical copy of its Q3.12 weights instead of re-quantizing N times
and holding N copies.

Two attachment modes:

* **shared** (default) — read-only views straight into the segment.
  The arrays are marked non-writeable: a replica cannot corrupt its
  peers, by construction.
* **private** (``copy=True``) — a writable private copy per worker.
  This is what chaos runs use: injected SEU bit-flips and the
  CRC-repair path both *mutate* parameter arrays, and fault isolation
  between replicas is part of what chaos-bench measures.

If POSIX shared memory is unavailable the descriptor falls back to
carrying the parameter arrays inline (pickled once per worker spawn) —
same semantics, no sharing.
"""

from __future__ import annotations

import numpy as np

from ..nn.network import init_params, quantize_params
from ..serve.engine import ModelRegistry

__all__ = ["SharedWeightStore", "StoreBackedRegistry"]


def _quantize_suite(networks, seed: int) -> dict:
    """``{name: params_raw}`` with the ModelRegistry recipe, once."""
    out = {}
    for network in networks:
        rng = np.random.default_rng(seed)
        out[network.name] = quantize_params(init_params(network, rng))
    return out


class SharedWeightStore:
    """One shared-memory segment holding every network's Q3.12 params.

    Build with :meth:`create` in the parent, ship :attr:`descriptor`
    (picklable) to workers, and :meth:`attach` there.  The parent owns
    the segment and must :meth:`unlink` it at cluster shutdown.
    """

    def __init__(self, shm, descriptor: dict, owner: bool):
        self._shm = shm
        self.descriptor = descriptor
        self._owner = owner
        self._closed = False

    # ------------------------------------------------------------------
    @classmethod
    def create(cls, networks, seed: int = 2020) -> "SharedWeightStore":
        params_by_name = _quantize_suite(networks, seed)
        entries = []
        offset = 0
        for name in sorted(params_by_name):
            for layer_idx, layer in enumerate(params_by_name[name]):
                for key in sorted(layer):
                    arr = layer[key]
                    entries.append({
                        "network": name, "layer": layer_idx, "key": key,
                        "shape": tuple(arr.shape), "offset": offset,
                        "size": int(arr.size),
                    })
                    offset += int(arr.size)
        total = max(offset, 1)
        try:
            from multiprocessing import shared_memory
            shm = shared_memory.SharedMemory(create=True, size=total * 8)
        except (ImportError, OSError):
            # No POSIX shm on this platform: fall back to shipping the
            # arrays inline with each worker spawn.
            descriptor = {"mode": "inline", "seed": seed,
                          "entries": entries,
                          "params": params_by_name}
            return cls(None, descriptor, owner=True)
        flat = np.ndarray((total,), dtype=np.int64, buffer=shm.buf)
        for entry in entries:
            name, li, key = entry["network"], entry["layer"], entry["key"]
            arr = params_by_name[name][li][key]
            start = entry["offset"]
            flat[start:start + entry["size"]] = arr.reshape(-1)
        descriptor = {"mode": "shm", "seed": seed, "shm_name": shm.name,
                      "total": total, "entries": entries}
        return cls(shm, descriptor, owner=True)

    @classmethod
    def attach(cls, descriptor: dict) -> "SharedWeightStore":
        if descriptor["mode"] == "inline":
            return cls(None, descriptor, owner=False)
        from multiprocessing import shared_memory
        try:
            # 3.13+: attach without resource-tracker registration; the
            # parent owns the segment's lifetime.
            shm = shared_memory.SharedMemory(name=descriptor["shm_name"],
                                             track=False)
        except TypeError:
            # Older Pythons register the attachment, but spawn/fork
            # children share the parent's tracker process, where the
            # re-registration is a set-add no-op — the parent's own
            # registration (from create) still drives cleanup, so no
            # unregister hack is needed (one would actually *remove*
            # the parent's entry and race with sibling workers).
            shm = shared_memory.SharedMemory(name=descriptor["shm_name"])
        return cls(shm, descriptor, owner=False)

    # ------------------------------------------------------------------
    def networks(self) -> list:
        return sorted({e["network"] for e in self.descriptor["entries"]})

    def params_for(self, network_name: str, copy: bool = False) -> list:
        """Rebuild ``params_raw`` for one network.

        ``copy=False`` returns read-only views into the shared segment;
        ``copy=True`` returns a writable private copy (chaos mode).
        """
        entries = [e for e in self.descriptor["entries"]
                   if e["network"] == network_name]
        if not entries:
            raise KeyError(f"network {network_name!r} not in weight store; "
                           f"have {self.networks()}")
        if self.descriptor["mode"] == "inline":
            layers: list = []
            for entry in entries:
                while len(layers) <= entry["layer"]:
                    layers.append({})
                arr = self.descriptor["params"][network_name][
                    entry["layer"]][entry["key"]]
                layers[entry["layer"]][entry["key"]] = \
                    arr.copy() if copy else arr
            return layers
        flat = np.ndarray((self.descriptor["total"],), dtype=np.int64,
                          buffer=self._shm.buf)
        layers = []
        for entry in entries:
            while len(layers) <= entry["layer"]:
                layers.append({})
            view = flat[entry["offset"]:entry["offset"] + entry["size"]]
            view = view.reshape(entry["shape"])
            if copy:
                view = view.copy()
            else:
                view = view.view()
                view.flags.writeable = False
            layers[entry["layer"]][entry["key"]] = view
        return layers

    @property
    def nbytes(self) -> int:
        if self.descriptor["mode"] != "shm":
            return sum(e["size"] * 8 for e in self.descriptor["entries"])
        return self.descriptor["total"] * 8

    # ------------------------------------------------------------------
    def close(self) -> None:
        if self._shm is not None and not self._closed:
            self._closed = True
            try:
                self._shm.close()
            except Exception:
                pass

    def unlink(self) -> None:
        """Destroy the segment (parent only, after every worker exited)."""
        if self._shm is not None and self._owner:
            self.close()
            try:
                self._shm.unlink()
            except Exception:
                pass


class StoreBackedRegistry(ModelRegistry):
    """A :class:`ModelRegistry` whose parameters come from the store.

    Everything else — plans, cycle counts, CRC checksums, the repair
    recipe (re-quantize pristine parameters; the store and the registry
    share the same pure ``(network, seed)`` recipe) — behaves exactly
    like the in-process registry, so the serving engine cannot tell the
    difference.
    """

    def __init__(self, store: SharedWeightStore, seed: int = 2020,
                 mutable: bool = False, abft: bool = False):
        super().__init__(seed=seed, abft=abft)
        self._store = store
        self._mutable = mutable

    def _params_for(self, network) -> list:
        return self._store.params_for(network.name, copy=self._mutable)
