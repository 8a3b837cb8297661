"""Baseband-unit (vBS) power model.

Reproduces Performance Indicator 4 and the two regimes measured in the
paper:

* **Low load** (Fig. 5): the BS is mostly idle; raising the MCS shortens
  the busy time per bit faster than it raises the instantaneous power,
  so *higher MCS lowers energy*.
* **Saturation** (Fig. 6, 10x load): the busy time is pinned at the
  airtime budget, so the per-subframe power premium of high MCS
  dominates and *higher MCS raises power*.

The model is

``P = P_idle + busy_fraction * (p_base + p_mcs * efficiency(mcs))``

with ``busy_fraction = min(airtime, offered_load / (nominal_rate *
grant_utilization))``: the BS processes subframes only while traffic
occupies them (scaled by how densely a single closed-loop UE fills its
grants), never more than the airtime policy allows.  Calibrated so the
net power spans the 4.5-7.5 W range reported for the srsRAN BBU on an
Intel NUC.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.ran import phy
from repro.utils.validation import check_fraction, check_non_negative, check_positive


@dataclass(frozen=True)
class BSPowerModel:
    """Affine busy-time power model for the virtualized BS baseband.

    Attributes
    ----------
    idle_power_w:
        Net baseband power with no traffic.
    base_busy_power_w:
        Extra power while processing subframes, independent of MCS
        (FFTs, channel estimation).
    mcs_busy_power_w:
        Extra power per unit spectral efficiency while busy (decoder
        effort grows with modulation order / code rate).
    grant_utilization:
        Average fraction of a granted subframe actually filled with
        payload by a closed-loop UE (padding, BSR rounding); lower
        values mean more subframes occupied per delivered bit.
    """

    idle_power_w: float = 4.2
    base_busy_power_w: float = 6.0
    mcs_busy_power_w: float = 0.16
    grant_utilization: float = 0.5

    def __post_init__(self) -> None:
        check_non_negative(self.idle_power_w, "idle_power_w")
        check_non_negative(self.base_busy_power_w, "base_busy_power_w")
        check_non_negative(self.mcs_busy_power_w, "mcs_busy_power_w")
        if not 0 < self.grant_utilization <= 1:
            raise ValueError(
                f"grant_utilization must be in (0, 1], got {self.grant_utilization}"
            )

    def busy_fraction(
        self, offered_load_bps: float, airtime: float, nominal_rate_bps: float
    ) -> float:
        """Fraction of time the baseband actively processes subframes.

        Parameters
        ----------
        offered_load_bps:
            Aggregate uplink traffic the slice carries.
        airtime:
            Airtime policy (upper bound on the busy fraction).
        nominal_rate_bps:
            Nominal PHY rate at 100% airtime for the effective MCS
            (bits per subframe x subframe rate), before MAC overheads.
        """
        check_non_negative(offered_load_bps, "offered_load_bps")
        check_fraction(airtime, "airtime")
        check_positive(nominal_rate_bps, "nominal_rate_bps")
        demanded = offered_load_bps / (nominal_rate_bps * self.grant_utilization)
        return float(min(airtime, demanded))

    def power_w(
        self,
        mcs: int,
        offered_load_bps: float,
        airtime: float,
        nominal_rate_bps: float,
    ) -> float:
        """Net baseband power (W) for one steady-state operating point."""
        if not 0 <= mcs <= phy.MAX_MCS:
            raise ValueError(f"mcs must be in 0..{phy.MAX_MCS}, got {mcs}")
        busy = self.busy_fraction(offered_load_bps, airtime, nominal_rate_bps)
        return float(self.idle_power_w + busy * self.busy_power_w(mcs))

    def busy_power_w(self, mcs: int) -> float:
        """Extra power while processing subframes at ``mcs``."""
        return self.base_busy_power_w + self.mcs_busy_power_w * phy.mcs_efficiency(mcs)

    @property
    def max_power_w(self) -> float:
        """Upper bound on net power (busy 100% at the highest MCS)."""
        return float(
            self.idle_power_w
            + self.base_busy_power_w
            + self.mcs_busy_power_w * phy.mcs_efficiency(phy.MAX_MCS)
        )
