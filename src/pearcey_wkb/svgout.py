"""Minimal deterministic SVG output for sections and trajectory panels.

Numbers are formatted with a fixed precision so identical inputs produce
byte-identical files; an optional metadata comment carries the config hash
and (unless suppressed) a timestamp.
"""

from __future__ import annotations

from dataclasses import dataclass, field


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
        pts = " ".join(f"{_fmt(x)},{_fmt(y)}" for x, y in (self._map(z) for z in zs))
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


def render_trajectories(traj, upto_tau: float = 1.0, window=None, meta: str = "") -> str:
    """Three labeled singularity trajectories in the Borel plane."""
    rows = [v.tolist() for t, v in zip(traj.taus, traj.values) if t <= upto_tau]
    tracks = [list(track) for track in zip(*rows)]  # Python complex: fast to format
    if window is None:
        allv = [z for tr in tracks for z in tr]
        m = max(max(abs(z.real) for z in allv), max(abs(z.imag) for z in allv)) * 1.2
        window = (-m, m, -m, m)
    canvas = SvgCanvas(window=window, meta=meta)
    canvas.frame()
    canvas.polyline([complex(window[0], 0), complex(window[1], 0)], color="#cccccc")
    canvas.polyline([complex(0, window[2]), complex(0, window[3])], color="#cccccc")
    for i, tr in enumerate(tracks):
        canvas.polyline(tr, color=TRAJ_COLORS[i], width=1.4)
        canvas.dot(tr[-1], r=3.0, color=TRAJ_COLORS[i])
        canvas.text(tr[-1] + 0.03 * abs(window[1]), f"u{i + 1}", color=TRAJ_COLORS[i])
    return canvas.render()
