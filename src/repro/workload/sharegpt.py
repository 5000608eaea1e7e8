"""Synthetic ShareGPT-like datasets.

The paper samples request lengths from ShareGPT and from two scaled
variants, ShareGPT-ix2 (2x input lengths) and ShareGPT-ox2 (2x output
lengths).  The real dataset is not available offline, so we fit the
well-known shape of its tokenized length distributions: both prompt and
response lengths are heavy-tailed and well approximated by clipped
lognormals (multi-turn prompts push the input tail out further).

The substitution is behaviour-preserving for this paper because the
evaluation treats ShareGPT purely as an (input_len, output_len) sampler.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

__all__ = ["LengthSample", "Dataset", "SHAREGPT", "sharegpt", "sharegpt_ix2", "sharegpt_ox2"]


@dataclass(frozen=True)
class LengthSample:
    """Token lengths of one request."""

    input_tokens: int
    output_tokens: int


@dataclass(frozen=True)
class Dataset:
    """A parametric (input, output) length distribution.

    Lengths are drawn from lognormals (parameterized by the median and
    sigma of the underlying normal) and clipped to sane token ranges.
    ``input_scale``/``output_scale`` implement the paper's ix2/ox2
    variants.
    """

    name: str
    input_median: float = 230.0
    input_sigma: float = 1.1
    output_median: float = 230.0
    output_sigma: float = 0.9
    min_tokens: int = 4
    max_input: int = 8192
    max_output: int = 2048
    input_scale: float = 1.0
    output_scale: float = 1.0

    def sample_arrays(
        self, rng: np.random.Generator, count: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """Draw ``count`` i.i.d. length pairs as (inputs, outputs) int arrays.

        This is the vectorized sampling core (byte-identical draws to
        the removed list-returning ``sample``); the streaming path draws
        one pair at a time through :meth:`draw` instead.
        """
        inputs = rng.lognormal(
            mean=np.log(self.input_median), sigma=self.input_sigma, size=count
        )
        outputs = rng.lognormal(
            mean=np.log(self.output_median), sigma=self.output_sigma, size=count
        )
        inputs = np.clip(
            np.round(inputs * self.input_scale), self.min_tokens, self.max_input
        )
        outputs = np.clip(
            np.round(outputs * self.output_scale), self.min_tokens, self.max_output
        )
        return inputs.astype(int), outputs.astype(int)

    def draw(self, rng: np.random.Generator) -> LengthSample:
        """Draw one length pair (the streaming generators' scalar path)."""
        i = rng.lognormal(mean=np.log(self.input_median), sigma=self.input_sigma)
        o = rng.lognormal(mean=np.log(self.output_median), sigma=self.output_sigma)
        i = min(max(round(i * self.input_scale), self.min_tokens), self.max_input)
        o = min(max(round(o * self.output_scale), self.min_tokens), self.max_output)
        return LengthSample(int(i), int(o))

    def sample_one(self, rng: np.random.Generator) -> LengthSample:
        """Draw a single length pair."""
        inputs, outputs = self.sample_arrays(rng, 1)
        return LengthSample(int(inputs[0]), int(outputs[0]))

    def mean_lengths(self, rng: np.random.Generator, n: int = 20000) -> tuple[float, float]:
        """Empirical mean (input, output) lengths — used for calibration."""
        inputs, outputs = self.sample_arrays(rng, n)
        return (float(inputs.mean()), float(outputs.mean()))

    def scaled(self, input_scale: float = 1.0, output_scale: float = 1.0, name: str | None = None) -> "Dataset":
        """A copy with scaled lengths (the paper's ix2/ox2 construction)."""
        return replace(
            self,
            name=name or f"{self.name}-i{input_scale:g}o{output_scale:g}",
            input_scale=self.input_scale * input_scale,
            output_scale=self.output_scale * output_scale,
        )


SHAREGPT = Dataset(name="ShareGPT")


def sharegpt() -> Dataset:
    """The base ShareGPT-like dataset."""
    return SHAREGPT


def sharegpt_ix2() -> Dataset:
    """ShareGPT with input lengths scaled 2x (paper's ShareGPT-ix2)."""
    return SHAREGPT.scaled(input_scale=2.0, name="ShareGPT-ix2")


def sharegpt_ox2() -> Dataset:
    """ShareGPT with output lengths scaled 2x (paper's ShareGPT-ox2)."""
    return SHAREGPT.scaled(output_scale=2.0, name="ShareGPT-ox2")
