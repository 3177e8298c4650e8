"""Pipeline report containers and the column-anchor registry.

Every CSV column emitted by a pipeline carries a registered anchor string
describing the quantity or inequality it reports; emission validates the
headers against this registry so reports stay self-describing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

FORCES_IDENTITY = "forces-identity"
INCONCLUSIVE = "inconclusive"

#: column name -> anchor (defining formula / inequality) for report headers
COLUMN_REGISTRY: dict[str, str] = {
    "n": "schedule index",
    "r_n": "schedule radius r_n",
    "p_n": "probe point p_n = xi0 + r_n * normal",
    "K_z0_pn": "K(z0,p_n) upper bound",
    "K_z0_pn_bound": "C0 + 0.5*log(1/r_n)",
    "K_bound_halflog": "0.5*log(2/r_n)",
    "E_5r4": "E(5 r_n / 4) boundary error modulus",
    "disp_bound": "(C1/r_n) * E(5 r_n/4)",
    "disp_sup": "sup over B_K(p_n;eps_n) of K(w, f(w))",
    "eps_n": "certified radius with B_K(p_n;eps_n) inside B(p_n;r_n/4)",
    "eps_bound": "a * r_n^(1 - 1/ell) certified floor",
    "e4K": "exp(4 K(z0, p_n))",
    "e4K_bound": "A * r_n^(-2)",
    "composite": "exp(4K)/eps_n * disp_sup quantitative-identity term",
    "in_regime": "E(5 r_n/4) <= r_n/4 regime flag",
    "d_pn_p0": "d(p_n, p_0) along the cone",
    "d_pn_p0_bound": "(1+eps)*A/sin(theta) * log(r_0/r_n)",
    "T_n": "d(z0, p_n) geodesic horizon",
    "T_n_bound": "d(z0,p_0) + (1+eps)*A/sin(theta) * log(r_0/r_n)",
    "tau_n": "exit time of the Euclidean ball of radius sin(theta) r_n / 4",
    "tau_bound": "delta * r_n floor for tau_n",
    "geo_disp_sup": "max over [0,tau_n] of d(gamma_n(t), phi(gamma_n(t)))",
    "geo_disp_bound": "C1 * r_n^(L-1)",
    "init_cond": "d_T1(gamma_n'(0), (phi o gamma_n)'(0)) upper",
    "init_cond_bound": "C2 * r_n^(L-4d-2)",
    "spread_product": "exp((kappa+eps+1)/2 * T_n) * init_cond",
    "d_z0_phi_z0": "measured d(z0, phi(z0))",
}


@dataclass
class PipelineReport:
    """Per-step quantity table with row-wise inequality checks and a verdict."""

    name: str
    columns: list[str]
    rows: list[dict] = field(default_factory=list)
    verdict: str = INCONCLUSIVE
    fitted: dict = field(default_factory=dict)
    checks: list[tuple[str, bool]] = field(default_factory=list)
    provenance: dict = field(default_factory=dict)
    notes: list[str] = field(default_factory=list)

    def column(self, name: str) -> list:
        return [row[name] for row in self.rows]

    def add_check(self, description: str, ok: bool) -> None:
        self.checks.append((description, bool(ok)))

    @property
    def all_checks_pass(self) -> bool:
        return all(ok for _, ok in self.checks)

    def decide(self, column: str, threshold: float, consistent: bool = True) -> str:
        """The one verdict rule: ``forces-identity`` needs every check and
        ``consistent`` to hold, and the column's last value to be finite,
        below ``threshold`` and not above its first value."""
        first, last = self.rows[0][column], self.rows[-1][column]
        decays = math.isfinite(last) and last < threshold and last <= first + 1e-15
        ok = decays and consistent and self.all_checks_pass
        self.verdict = FORCES_IDENTITY if ok else INCONCLUSIVE
        return self.verdict

    def validate_columns(self) -> None:
        missing = [c for c in self.columns if c not in COLUMN_REGISTRY]
        if missing:
            raise KeyError(f"columns missing from the anchor registry: {missing}")
