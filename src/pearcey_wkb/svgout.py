"""Minimal deterministic SVG output for sections and trajectory panels.

Numbers are formatted with a fixed precision so identical inputs produce
byte-identical files; an optional metadata comment carries the config hash
and (unless suppressed) a timestamp.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from itertools import accumulate


def _fmt(v: float) -> str:
    return f"{v:.6g}"


@dataclass
class SvgCanvas:
    """Fixed-size canvas mapping a complex-plane window to pixels."""

    window: tuple[float, float, float, float]  # re0, re1, im0, im1
    size: int = 480
    elements: list = field(default_factory=list)
    meta: str = ""

    def _map(self, z: complex) -> tuple[float, float]:
        re0, re1, im0, im1 = self.window
        sx = self.size / (re1 - re0)
        sy = self.size / (im1 - im0)
        return ((z.real - re0) * sx, (im1 - z.imag) * sy)

    def dot(self, z: complex, r: float = 2.0, color: str = "#000000"):
        x, y = self._map(z)
        self.elements.append(
            f'<circle cx="{_fmt(x)}" cy="{_fmt(y)}" r="{_fmt(r)}" fill="{color}"/>'
        )

    def polyline(self, zs, color: str = "#000000", width: float = 1.0):
        """A polyline through the sequence of complex numbers ``zs``, each
        mapped as ``_map`` maps it, formatted in one go."""
        re0, re1, im0, im1 = self.window
        sx = self.size / (re1 - re0)
        sy = self.size / (im1 - im0)
        xy = [0.0] * (2 * len(zs))
        xy[::2] = [(z.real - re0) * sx for z in zs]
        xy[1::2] = [(im1 - z.imag) * sy for z in zs]
        pts = ("%.6g,%.6g " * len(zs))[:-1] % tuple(xy)
        self.elements.append(
            f'<polyline points="{pts}" fill="none" stroke="{color}" '
            f'stroke-width="{_fmt(width)}"/>'
        )

    def text(self, z: complex, s: str, color: str = "#000000", size: int = 11):
        x, y = self._map(z)
        self.elements.append(
            f'<text x="{_fmt(x)}" y="{_fmt(y)}" font-size="{size}" '
            f'fill="{color}" font-family="sans-serif">{s}</text>'
        )

    def frame(self):
        self.elements.append(
            f'<rect x="0" y="0" width="{self.size}" height="{self.size}" '
            'fill="none" stroke="#888888" stroke-width="1"/>'
        )

    def render(self) -> str:
        head = (
            '<?xml version="1.0" encoding="UTF-8"?>\n'
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{self.size}" '
            f'height="{self.size}" viewBox="0 0 {self.size} {self.size}">\n'
        )
        meta = f"<!-- {self.meta} -->\n" if self.meta else ""
        body = "\n".join(self.elements)
        return head + meta + body + "\n</svg>\n"


TRAJ_COLORS = ("#c02020", "#2020c0", "#208020")


def render_section(section, extra_dots=(), meta: str = "") -> str:
    """Stokes-set section figure: union crossings, turning points, markers."""
    canvas = SvgCanvas(window=section.window, meta=meta)
    canvas.frame()
    for z in section.polylines["union"]:
        canvas.dot(z, r=1.2, color="#303030")
    for tp in section.turning_points:
        canvas.dot(tp, r=5.0, color="#000000")
    for z in extra_dots:
        canvas.dot(z, r=3.0, color="#c02020")
    return canvas.render()


def render_trajectories(traj, upto_taus=(1.0,), meta: str = "") -> list[str]:
    """Three labeled singularity trajectories in the Borel plane, one panel
    per entry of ``upto_taus``: the tracks up to that tau, in the square
    window 1.2 times the largest |Re u| or |Im u| they reach.

    The trace is read once, as Python complex: a panel's rows are a prefix
    of the trace (its taus ascend), and the running maximum of |Re u| and
    |Im u| over the rows gives every panel's window.
    """
    rows = [v.tolist() for v in traj.values]
    reach = list(accumulate((max(max(abs(z.real), abs(z.imag)) for z in row) for row in rows), max))
    tracks = [list(track) for track in zip(*rows)]
    panels = []
    for upto in upto_taus:
        k = bisect_right(traj.taus, upto)
        m = reach[k - 1] * 1.2
        canvas = SvgCanvas(window=(-m, m, -m, m), meta=meta)
        canvas.frame()
        canvas.polyline([complex(-m, 0), complex(m, 0)], color="#cccccc")
        canvas.polyline([complex(0, -m), complex(0, m)], color="#cccccc")
        for i, track in enumerate(tracks):
            canvas.polyline(track[:k], color=TRAJ_COLORS[i], width=1.4)
            canvas.dot(track[k - 1], r=3.0, color=TRAJ_COLORS[i])
            canvas.text(track[k - 1] + 0.03 * m, f"u{i + 1}", color=TRAJ_COLORS[i])
        panels.append(canvas.render())
    return panels
