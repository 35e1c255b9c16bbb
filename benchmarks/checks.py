"""Answer checks and the benchmark's own numpy references.

Every operation's answer is compared with a value this module computes from
the generated inputs, or with a property every OCE must have (cash
additivity, primal/dual agreement, the bracket [min_A x, E[x|A]]).  Nothing
here calls condrisk, so a fault in the package cannot hide in its own
reference.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass

import numpy as np

# Tolerances, each well above the error measured on working code and well
# below any error that would change a reported digit that matters.
TOL_REF = 1e-9  # closed forms: segmented log-sum-exp, mean - var/c, E[phi(y)|A]
TOL_BOUND = 1e-9  # slack on [min_A x, E[x|A]]
TOL_CASH = 1e-9  # value(x + c) - c against value(x)
TOL_DUAL = 1e-6  # primal/dual agreement, the package's own gap threshold
TOL_AXIOM = 1e-9  # worst sampled axiom violation of a closed-form niveloid


class CheckFailed(Exception):
    """An operation returned an answer outside a check's tolerance."""


@dataclass(frozen=True)
class Check:
    """``lo - tol <= view[field] <= hi + tol`` elementwise.

    A closeness check is the case ``lo == hi``; an exact check has
    ``tol == 0``.  NaN fails every check.
    """

    name: str
    field: str
    lo: object
    hi: object
    tol: float = 0.0

    def failure(self, view):
        got = np.atleast_1d(np.asarray(view[self.field], dtype=float))
        try:
            lo = np.broadcast_to(np.asarray(self.lo, dtype=float), got.shape)
            hi = np.broadcast_to(np.asarray(self.hi, dtype=float), got.shape)
        except ValueError:
            return f"{self.name}: {self.field} has shape {got.shape}"
        ok = (got >= lo - self.tol) & (got <= hi + self.tol)
        if np.all(ok):
            return None
        i = int(np.argmin(ok))
        return (
            f"{self.name}: {self.field}[{i}]={float(got[i])!r} outside "
            f"[{float(lo[i])!r}, {float(hi[i])!r}] +- {self.tol:g}"
        )


def close(name, field, want, tol):
    return Check(name, field, want, want, tol)


def exact(name, field, want):
    return Check(name, field, want, want, 0.0)


def run_checks(checks, view):
    failures = [f for f in (c.failure(view) for c in checks) if f is not None]
    if failures:
        raise CheckFailed("; ".join(failures))


# ---------------------------------------------------------------------------
# references, all segmented by the state -> atom label array


class Segments:
    """Per-atom reductions of state vectors under base probabilities ``p``."""

    def __init__(self, labels, p):
        self.labels = np.asarray(labels)
        self.k = int(self.labels.max()) + 1
        self.p = np.asarray(p, dtype=float)
        self.mass = self.sum(self.p)

    def sum(self, v):
        return np.bincount(self.labels, weights=v, minlength=self.k)

    def mean(self, x):
        return self.sum(self.p * x) / self.mass

    def var(self, x):
        return self.mean((x - self.mean(x)[self.labels]) ** 2)

    def min(self, x):
        out = np.full(self.k, np.inf)
        np.minimum.at(out, self.labels, x)
        return out

    def max(self, x):
        return -self.min(-x)

    def entropic(self, x):
        """-log E[exp(-x) | A], shifted by the atom maximum of -x."""
        top = self.max(-x)
        return -(top + np.log(self.mean(np.exp(-x - top[self.labels]))))

    def oce(self, gen, x):
        """Closed-form OCE of ``x`` for the three workload generators.

        For chi2 and power:2 the conjugate is quadratic on the positions the
        workloads generate (max_A x - E[x|A] <= 2 and <= 1), which gives
        mean - var/4 and mean - var/2.
        """
        if gen == "kl":
            return self.entropic(x)
        spread = float(np.max(self.max(x) - self.mean(x)))
        limit, c = {"chi2": (2.0, 4.0), "power:2": (1.0, 2.0)}[gen]
        if spread > limit:
            raise ValueError(f"{gen}: position leaves the quadratic branch ({spread} > {limit})")
        return self.mean(x) - self.var(x) / c

    def divergence(self, gen, y):
        """E[phi(y) | A] for a density y."""
        phi = {
            "kl": lambda t: t * np.log(t) - t + 1.0,
            "chi2": lambda t: (t - 1.0) ** 2,
            "power:2": lambda t: 0.5 * (t - 1.0) ** 2,
        }[gen]
        return self.mean(phi(y))

    def oce_checks(self, gen, x, view_field="value"):
        """Reference value and the [min_A x, E[x|A]] bracket."""
        return [
            close(f"{gen} reference", view_field, self.oce(gen, x), TOL_REF),
            Check("min <= value <= mean", view_field, self.min(x), self.mean(x), TOL_BOUND),
        ]


# ---------------------------------------------------------------------------
# CLI report parsing


def parse_report(text: str, fmt: str):
    """Per-row ``value`` column of a condrisk report, as floats."""
    if fmt == "json":
        return [float(r["value"]) for r in json.loads(text)["rows"]]
    if fmt == "csv":
        rows = list(csv.reader(io.StringIO(text)))
        col = rows[0].index("value")
        return [float(r[col]) for r in rows[1:]]
    lines = text.splitlines()
    col = lines[0].split().index("value")
    return [float(line.split()[col]) for line in lines[1:]]
