"""Deterministic random-number management.

Every stochastic component of the simulator draws from a
:class:`numpy.random.Generator` handed to it by its caller; nothing in the
library touches the global NumPy RNG state.  Reproducibility across runs and
across process boundaries is achieved with :class:`numpy.random.SeedSequence`
spawning, wrapped here in a small helper that derives child streams from
string labels so that adding a new consumer never perturbs the draws of
existing ones.

Example
-------
>>> root = RngFactory(1234)
>>> silicon_rng = root.generator("silicon")
>>> facility_rng = root.generator("facility")
>>> # identical labels yield identical, independent streams:
>>> a = RngFactory(7).generator("x").integers(0, 100, 3)
>>> b = RngFactory(7).generator("x").integers(0, 100, 3)
>>> bool((a == b).all())
True
"""

from __future__ import annotations

import hashlib
import struct
from typing import Iterable

import numpy as np

__all__ = ["RngFactory", "label_to_words", "spawn_generators"]


def label_to_words(label: str) -> list[int]:
    """Hash a string label into a list of 32-bit words for SeedSequence.

    Uses BLAKE2b so the mapping is stable across Python versions and
    platforms (unlike ``hash()``).
    """
    digest = hashlib.blake2b(label.encode("utf-8"), digest_size=16).digest()
    return list(struct.unpack("<4I", digest))


def _seed_to_words(seed: int) -> list[int] | None:
    """``seed`` as the little-endian 32-bit words numpy splits it into.

    A seed of 0 is ``[0]``.  A negative seed has no words (``None``);
    numpy rejects it when a stream is built.
    """
    if seed < 0:
        return None
    words = [seed & 0xFFFFFFFF]
    seed >>= 32
    while seed:
        words.append(seed & 0xFFFFFFFF)
        seed >>= 32
    return words


class RngFactory:
    """Derives independent, label-addressed random generators from one seed.

    Parameters
    ----------
    seed:
        Master seed for the whole experiment.  Two factories constructed
        with the same seed produce identical streams for identical labels.
    """

    def __init__(self, seed: int) -> None:
        if not isinstance(seed, (int, np.integer)):
            raise TypeError(f"seed must be an integer, got {type(seed).__name__}")
        self._seed = int(seed)
        self._seed_words = _seed_to_words(self._seed)

    @property
    def seed(self) -> int:
        """The master seed this factory was constructed with."""
        return self._seed

    def sequence(self, label: str) -> np.random.SeedSequence:
        """Return the SeedSequence for ``label`` under this master seed.

        Its entropy is the uint32 array ``[*seed words, *label words]``:
        the words numpy itself makes of ``[seed, *label_to_words(label)]``,
        built in one array rather than one small array per int, so the
        sequence's pool and every stream drawn from it are the same.  The
        ``entropy`` attribute is therefore that array, not a list.
        """
        if self._seed_words is None:
            # Let numpy raise its own error for a negative seed.
            return np.random.SeedSequence([self._seed, *label_to_words(label)])
        return np.random.SeedSequence(
            np.array(self._seed_words + label_to_words(label), dtype=np.uint32)
        )

    def generator(self, label: str) -> np.random.Generator:
        """Return a fresh PCG64 generator keyed by ``label``."""
        return np.random.Generator(np.random.PCG64(self.sequence(label)))

    def child(self, label: str) -> "RngFactory":
        """Return a sub-factory whose streams are independent of this one.

        Useful for giving each simulated day / run its own namespace:
        ``factory.child(f"day-{d}").generator("jitter")``.
        """
        # Fold the label into a derived integer seed deterministically.
        words = label_to_words(label)
        mixed = self._seed
        for w in words:
            mixed = (mixed * 6364136223846793005 + w + 1442695040888963407) % (1 << 63)
        return RngFactory(mixed)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"RngFactory(seed={self._seed})"


def spawn_generators(seed: int, labels: Iterable[str]) -> dict[str, np.random.Generator]:
    """Convenience: build a dict of independent generators for ``labels``."""
    factory = RngFactory(seed)
    return {label: factory.generator(label) for label in labels}
