package measure

import (
	"fmt"
	"math"
	"strings"
)

// AsciiPlot renders one or more (x, y) series as a fixed-size ASCII
// chart, for the terminal output of cmd/experiments. Each series gets a
// distinct glyph; overlapping points show the later series.
type AsciiPlot struct {
	Title  string
	XLabel string
	Width  int // plot columns (default 64)
	Height int // plot rows (default 16)

	series []plotSeries
}

type plotSeries struct {
	name   string
	glyph  byte
	points []Point
}

var plotGlyphs = []byte{'*', '+', 'o', 'x', '#', '@'}

// AddSeries appends a named series.
func (p *AsciiPlot) AddSeries(name string, points []Point) {
	glyph := plotGlyphs[len(p.series)%len(plotGlyphs)]
	p.series = append(p.series, plotSeries{name: name, glyph: glyph, points: points})
}

// String renders the chart.
func (p *AsciiPlot) String() string {
	w, h := p.Width, p.Height
	if w <= 0 {
		w = 64
	}
	if h <= 0 {
		h = 16
	}
	minX, maxX := math.Inf(1), math.Inf(-1)
	minY, maxY := math.Inf(1), math.Inf(-1)
	total := 0
	for _, s := range p.series {
		for _, pt := range s.points {
			minX, maxX = math.Min(minX, pt.X), math.Max(maxX, pt.X)
			minY, maxY = math.Min(minY, pt.Y), math.Max(maxY, pt.Y)
			total++
		}
	}
	if total == 0 {
		return p.Title + " (no data)\n"
	}
	if maxX == minX {
		maxX = minX + 1
	}
	if maxY == minY {
		maxY = minY + 1
	}

	grid := make([][]byte, h)
	for i := range grid {
		grid[i] = []byte(strings.Repeat(" ", w))
	}
	for _, s := range p.series {
		for _, pt := range s.points {
			col := int((pt.X - minX) / (maxX - minX) * float64(w-1))
			row := h - 1 - int((pt.Y-minY)/(maxY-minY)*float64(h-1))
			grid[row][col] = s.glyph
		}
	}

	var b strings.Builder
	if p.Title != "" {
		fmt.Fprintf(&b, "%s\n", p.Title)
	}
	yHi := fmt.Sprintf("%.3g", maxY)
	yLo := fmt.Sprintf("%.3g", minY)
	margin := len(yHi)
	if len(yLo) > margin {
		margin = len(yLo)
	}
	for i, row := range grid {
		label := strings.Repeat(" ", margin)
		switch i {
		case 0:
			label = fmt.Sprintf("%*s", margin, yHi)
		case h - 1:
			label = fmt.Sprintf("%*s", margin, yLo)
		}
		fmt.Fprintf(&b, "%s |%s|\n", label, string(row))
	}
	fmt.Fprintf(&b, "%s +%s+\n", strings.Repeat(" ", margin), strings.Repeat("-", w))
	fmt.Fprintf(&b, "%s  %-*s%s\n", strings.Repeat(" ", margin), w-len(fmt.Sprintf("%.3g", maxX)), fmt.Sprintf("%.3g", minX), fmt.Sprintf("%.3g", maxX))
	var legend []string
	for _, s := range p.series {
		legend = append(legend, fmt.Sprintf("%c=%s", s.glyph, s.name))
	}
	if p.XLabel != "" || len(legend) > 0 {
		fmt.Fprintf(&b, "x: %s   %s\n", p.XLabel, strings.Join(legend, "  "))
	}
	return b.String()
}

// Sparkline renders values as a compact one-line bar chart.
func Sparkline(values []float64) string {
	if len(values) == 0 {
		return ""
	}
	ramp := []rune("▁▂▃▄▅▆▇█")
	minV, maxV := values[0], values[0]
	for _, v := range values {
		minV = math.Min(minV, v)
		maxV = math.Max(maxV, v)
	}
	span := maxV - minV
	var b strings.Builder
	for _, v := range values {
		idx := 0
		if span > 0 {
			idx = int((v - minV) / span * float64(len(ramp)-1))
		}
		b.WriteRune(ramp[idx])
	}
	return b.String()
}
