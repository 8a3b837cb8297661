"""GPU speed/power model (Policy 3 substrate).

The testbed GPU is an NVIDIA RTX 2080 Ti whose driver exposes a runtime
power-management limit between 100 and 280 W.  Policy 3 normalises this
knob to [0, 1].  The model captures the three facts measured in Fig. 3:

* a higher power limit lets the GPU clock higher, reducing per-image
  inference time (sub-linearly: clocks scale roughly with the cube root
  of power, we use a configurable exponent);
* higher-resolution inputs *ease* the detector's work per image
  (cleaner features, fewer ambiguous proposals), so the per-image base
  time decreases mildly with resolution;
* the mean power drawn equals idle power plus the duty-cycle-weighted
  headroom up to the cap — the driver enforces the cap, the workload
  sets the duty cycle.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.utils.validation import check_fraction, check_non_negative, check_positive


@dataclass(frozen=True)
class GpuModel:
    """Parametric model of a power-capped inference GPU.

    Attributes
    ----------
    min_power_cap_w, max_power_cap_w:
        Driver limits of the power-management knob (RTX 2080 Ti:
        100-280 W).
    idle_power_w:
        Draw of the idle GPU.
    speed_exponent:
        Exponent relating relative power cap to relative clock speed;
        0 < exponent <= 1 (DVFS gives diminishing returns).
    base_inference_time_s:
        Per-image inference time at full resolution and full speed
        (Faster R-CNN R101 on a 2080 Ti: ~0.1 s).
    resolution_ease_s:
        Extra per-image time at zero resolution; decreases linearly to 0
        at full resolution (Fig. 3 bottom).
    busy_draw_fraction:
        Mean fraction of the power cap actually drawn while processing
        (an inference workload seldom pins the GPU at its limit).
    """

    min_power_cap_w: float = 100.0
    max_power_cap_w: float = 280.0
    idle_power_w: float = 18.0
    speed_exponent: float = 0.6
    base_inference_time_s: float = 0.090
    resolution_ease_s: float = 0.06
    busy_draw_fraction: float = 0.72

    def __post_init__(self) -> None:
        check_positive(self.min_power_cap_w, "min_power_cap_w")
        if self.max_power_cap_w <= self.min_power_cap_w:
            raise ValueError("max_power_cap_w must exceed min_power_cap_w")
        check_non_negative(self.idle_power_w, "idle_power_w")
        if not 0 < self.speed_exponent <= 1:
            raise ValueError(
                f"speed_exponent must be in (0, 1], got {self.speed_exponent}"
            )
        check_positive(self.base_inference_time_s, "base_inference_time_s")
        check_non_negative(self.resolution_ease_s, "resolution_ease_s")
        if not 0 < self.busy_draw_fraction <= 1:
            raise ValueError(
                f"busy_draw_fraction must be in (0, 1], got {self.busy_draw_fraction}"
            )

    def power_cap_w(self, speed_policy: float) -> float:
        """Absolute power-management limit for a normalised policy level."""
        check_fraction(speed_policy, "speed_policy")
        span = self.max_power_cap_w - self.min_power_cap_w
        return float(self.min_power_cap_w + span * speed_policy)

    def speed_factor(self, speed_policy: float) -> float:
        """Relative processing speed in (0, 1] for a policy level.

        Equals ``(cap / max_cap) ** speed_exponent`` so the full-power
        configuration has factor 1.
        """
        cap = self.power_cap_w(speed_policy)
        return float((cap / self.max_power_cap_w) ** self.speed_exponent)

    def inference_time_s(self, resolution: float, speed_policy: float) -> float:
        """Per-image GPU service time for a resolution and speed policy."""
        check_fraction(resolution, "resolution")
        base = self.base_inference_time_s + self.resolution_ease_s * (1.0 - resolution)
        return float(base / self.speed_factor(speed_policy))

    def busy_draw_w(self, speed_policy: float) -> float:
        """Draw while processing: ``busy_draw_fraction`` of the power
        cap, never below idle."""
        busy_draw = self.busy_draw_fraction * self.power_cap_w(speed_policy)
        return max(busy_draw, self.idle_power_w)

    def mean_power_w(self, utilization: float, speed_policy: float) -> float:
        """Mean GPU draw for a steady-state duty cycle.

        While processing, the GPU draws :meth:`busy_draw_w`; while idle
        it draws ``idle_power_w``.
        """
        check_fraction(utilization, "utilization")
        busy_draw = self.busy_draw_w(speed_policy)
        return float(
            self.idle_power_w + utilization * (busy_draw - self.idle_power_w)
        )
