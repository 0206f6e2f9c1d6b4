"""Hand-rolled SVG 1.1 output for the toy-attack figures.

Deliberately tiny: axes, points, bars and lines are enough for the scatter
and histogram panels, and keeping it dependency-free means figure emission
never drags in a plotting stack.
"""

from __future__ import annotations

import numpy as np

_PANEL_W = 420
_PANEL_H = 360
_MARGIN = 46


class Panel:
    """One plot area with its own data-space bounding box."""

    def __init__(self, title: str, x_min: float, x_max: float, y_min: float, y_max: float):
        self.title = title
        self.x_min, self.x_max = x_min, x_max
        self.y_min, self.y_max = y_min, y_max
        self.elements = []

    def _sx(self, x: float) -> float:
        span = self.x_max - self.x_min or 1.0
        return _MARGIN + (x - self.x_min) / span * (_PANEL_W - 2 * _MARGIN)

    def _sy(self, y: float) -> float:
        span = self.y_max - self.y_min or 1.0
        return _PANEL_H - _MARGIN - (y - self.y_min) / span * (_PANEL_H - 2 * _MARGIN)

    def points(self, xs: np.ndarray, ys: np.ndarray, colors, r: float = 2.5) -> None:
        """One circle per (xs[i], ys[i]), filled with colors[i]."""
        self.elements.extend(
            f'<circle cx="{cx:.2f}" cy="{cy:.2f}" r="{r}" fill="{color}" fill-opacity="0.7"/>'
            for cx, cy, color in zip(self._sx(xs), self._sy(ys), colors)
        )

    def line(self, x0: float, y0: float, x1: float, y1: float, color: str, width: float = 1.5, dash: str | None = None) -> None:
        dash_attr = f' stroke-dasharray="{dash}"' if dash else ""
        self.elements.append(
            f'<line x1="{self._sx(x0):.2f}" y1="{self._sy(y0):.2f}" '
            f'x2="{self._sx(x1):.2f}" y2="{self._sy(y1):.2f}" '
            f'stroke="{color}" stroke-width="{width}"{dash_attr}/>'
        )

    def bar(self, x0: float, x1: float, height: float, color: str) -> None:
        left = self._sx(x0)
        top = self._sy(height)
        self.elements.append(
            f'<rect x="{left:.2f}" y="{top:.2f}" width="{self._sx(x1) - left:.2f}" '
            f'height="{self._sy(0.0) - top:.2f}" fill="{color}" fill-opacity="0.5"/>'
        )

    def label(self, text: str, x: float, y: float, color: str = "#333") -> None:
        self.elements.append(
            f'<text x="{self._sx(x):.2f}" y="{self._sy(y):.2f}" '
            f'font-size="11" fill="{color}">{_escape(text)}</text>'
        )

    def render(self, offset_x: int) -> str:
        frame = (
            f'<rect x="{_MARGIN}" y="{_MARGIN}" width="{_PANEL_W - 2 * _MARGIN}" '
            f'height="{_PANEL_H - 2 * _MARGIN}" fill="none" stroke="#888"/>'
        )
        title = (
            f'<text x="{_PANEL_W / 2:.0f}" y="{_MARGIN - 14}" font-size="13" '
            f'text-anchor="middle" fill="#111">{_escape(self.title)}</text>'
        )
        ticks = []
        for frac in (0.0, 0.5, 1.0):
            xv = self.x_min + frac * (self.x_max - self.x_min)
            yv = self.y_min + frac * (self.y_max - self.y_min)
            ticks.append(
                f'<text x="{self._sx(xv):.1f}" y="{_PANEL_H - _MARGIN + 16}" '
                f'font-size="10" text-anchor="middle" fill="#555">{xv:.2g}</text>'
            )
            ticks.append(
                f'<text x="{_MARGIN - 6}" y="{self._sy(yv) + 3:.1f}" font-size="10" '
                f'text-anchor="end" fill="#555">{yv:.2g}</text>'
            )
        body = "\n".join([frame, title, *ticks, *self.elements])
        return f'<g transform="translate({offset_x},0)">\n{body}\n</g>'


def _escape(text: str) -> str:
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def render_document(panels: list[Panel]) -> str:
    width = _PANEL_W * len(panels)
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{width}" height="{_PANEL_H}" viewBox="0 0 {width} {_PANEL_H}">',
        f'<rect width="{width}" height="{_PANEL_H}" fill="white"/>',
    ]
    for i, panel in enumerate(panels):
        parts.append(panel.render(i * _PANEL_W))
    parts.append("</svg>")
    return "\n".join(parts)


def histogram_series(values, bins: int, lo: float, hi: float):
    """Equal-width bin counts normalized to density; returns (edges, heights)."""
    counts, edges = np.histogram(np.asarray(values), bins=bins, range=(lo, hi))
    widths = np.diff(edges)
    total = max(counts.sum(), 1)
    return edges, counts / (total * widths)
