// Package viz renders simulation results as standalone SVG documents:
// job Gantt charts (allocation over time) and step-function timelines
// (utilization, queue depth). Pure stdlib; the output opens in any
// browser, giving the figures the paper's evaluation plots correspond to.
package viz

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"

	"repro/internal/job"
	"repro/internal/metrics"
)

// Canvas geometry in pixels.
const (
	width        = 960
	height       = 480
	marginLeft   = 60.0
	marginRight  = 20.0
	marginTop    = 40.0
	marginBottom = 40.0
	plotW        = width - marginLeft - marginRight
	plotH        = height - marginTop - marginBottom
)

// svgBuilder accumulates SVG elements with bounds checking.
type svgBuilder struct {
	sb strings.Builder
}

// newSVG starts a canvas; a non-empty title is drawn at the top.
func newSVG(title string) *svgBuilder {
	b := &svgBuilder{}
	fmt.Fprintf(&b.sb, `<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d" viewBox="0 0 %d %d">`+"\n",
		width, height, width, height)
	fmt.Fprintf(&b.sb, `<rect width="%d" height="%d" fill="white"/>`+"\n", width, height)
	if title != "" {
		fmt.Fprintf(&b.sb, `<text x="%d" y="24" font-family="sans-serif" font-size="16" fill="#222">%s</text>`+"\n",
			width/2-len(title)*4, escape(title))
	}
	return b
}

func (b *svgBuilder) rect(x, y, w, h float64, fill, title string) {
	if w <= 0 || h <= 0 {
		return
	}
	fmt.Fprintf(&b.sb, `<rect x="%.2f" y="%.2f" width="%.2f" height="%.2f" fill="%s" stroke="#333" stroke-width="0.4">`,
		x, y, w, h, fill)
	if title != "" {
		fmt.Fprintf(&b.sb, `<title>%s</title>`, escape(title))
	}
	b.sb.WriteString("</rect>\n")
}

// shadedRect draws a borderless, semi-transparent rect (overlays).
func (b *svgBuilder) shadedRect(x, y, w, h float64, fill string, opacity float64, title string) {
	if w <= 0 || h <= 0 {
		return
	}
	fmt.Fprintf(&b.sb, `<rect x="%.2f" y="%.2f" width="%.2f" height="%.2f" fill="%s" fill-opacity="%.2f">`,
		x, y, w, h, fill, opacity)
	if title != "" {
		fmt.Fprintf(&b.sb, `<title>%s</title>`, escape(title))
	}
	b.sb.WriteString("</rect>\n")
}

func (b *svgBuilder) line(x1, y1, x2, y2 float64, stroke string, width float64) {
	fmt.Fprintf(&b.sb, `<line x1="%.2f" y1="%.2f" x2="%.2f" y2="%.2f" stroke="%s" stroke-width="%.2f"/>`+"\n",
		x1, y1, x2, y2, stroke, width)
}

func (b *svgBuilder) text(x, y float64, size int, anchor, s string) {
	fmt.Fprintf(&b.sb, `<text x="%.2f" y="%.2f" font-family="sans-serif" font-size="%d" fill="#444" text-anchor="%s">%s</text>`+"\n",
		x, y, size, anchor, escape(s))
}

func (b *svgBuilder) polyline(points []point, stroke string, width float64) {
	if len(points) == 0 {
		return
	}
	var coords []string
	for _, p := range points {
		coords = append(coords, fmt.Sprintf("%.2f,%.2f", p.x, p.y))
	}
	fmt.Fprintf(&b.sb, `<polyline points="%s" fill="none" stroke="%s" stroke-width="%.2f"/>`+"\n",
		strings.Join(coords, " "), stroke, width)
}

func (b *svgBuilder) finish(w io.Writer) error {
	b.sb.WriteString("</svg>\n")
	_, err := io.WriteString(w, b.sb.String())
	return err
}

type point struct{ x, y float64 }

// xmlEscaper is built once: a Replacer compiles its lookup on first use
// and is safe for concurrent use.
var xmlEscaper = strings.NewReplacer("&", "&amp;", "<", "&lt;", ">", "&gt;", `"`, "&quot;")

func escape(s string) string { return xmlEscaper.Replace(s) }

// jobColor returns a stable pastel color for a job index (golden-angle
// hue walk keeps neighbouring jobs distinguishable).
func jobColor(idx int) string {
	hue := math.Mod(float64(idx)*137.50776405003785, 360)
	return hslToHex(hue, 0.55, 0.65)
}

// hslToHex converts HSL (h in degrees, s/l in [0,1]) to #rrggbb.
func hslToHex(h, s, l float64) string {
	c := (1 - math.Abs(2*l-1)) * s
	hp := h / 60
	x := c * (1 - math.Abs(math.Mod(hp, 2)-1))
	var r, g, b float64
	switch {
	case hp < 1:
		r, g, b = c, x, 0
	case hp < 2:
		r, g, b = x, c, 0
	case hp < 3:
		r, g, b = 0, c, x
	case hp < 4:
		r, g, b = 0, x, c
	case hp < 5:
		r, g, b = x, 0, c
	default:
		r, g, b = c, 0, x
	}
	m := l - c/2
	to := func(v float64) int { return int(math.Round((v + m) * 255)) }
	return fmt.Sprintf("#%02x%02x%02x", to(r), to(g), to(b))
}

// niceTicks picks ~n human-friendly tick values covering [0, max].
func niceTicks(maxV float64, n int) []float64 {
	if maxV <= 0 || n < 1 {
		return []float64{0}
	}
	raw := maxV / float64(n)
	mag := math.Pow(10, math.Floor(math.Log10(raw)))
	var step float64
	for _, m := range []float64{1, 2, 5, 10} {
		step = m * mag
		if step >= raw {
			break
		}
	}
	var out []float64
	for v := 0.0; v <= maxV*1.0001; v += step {
		out = append(out, v)
	}
	return out
}

// WriteGantt renders a recorder's allocation history as an SVG Gantt
// chart: one colored band per job, reconfigurations marked at segment
// boundaries, node outages overlaid as hatched bands. It is the single
// Gantt implementation behind both the CLI's -gantt-svg flag and the
// daemon's gantt.svg endpoint.
func WriteGantt(w io.Writer, rec *metrics.Recorder, title string) error {
	return Gantt(w, rec.Gantt(), rec.Outages(), rec.TotalNodes(), title)
}

// WriteUtilization renders a recorder's busy-nodes timeline as an SVG step
// plot, scaled to the machine size.
func WriteUtilization(w io.Writer, rec *metrics.Recorder, title string) error {
	return Timeline(w, rec.BusyTimeline(), "busy nodes", float64(rec.TotalNodes()), title)
}

// Gantt renders allocation segments as a Gantt chart. Because segments
// record node counts (not identities), lanes are assigned with the same
// lowest-first discipline the simulator's allocator uses, so the picture
// closely matches the real placement. Node outages are overlaid as
// hatched gray bands on the failed node's lane; open outages (End < 0)
// extend to the end of the plotted time range.
func Gantt(w io.Writer, entries []metrics.GanttEntry, outages []metrics.Outage, totalNodes int, title string) error {
	if totalNodes <= 0 {
		return fmt.Errorf("viz: totalNodes must be positive")
	}
	b := newSVG(title)

	maxT := 0.0
	for _, e := range entries {
		if e.End > maxT {
			maxT = e.End
		}
	}
	if maxT == 0 {
		maxT = 1
	}
	xOf := func(t float64) float64 { return marginLeft + t/maxT*plotW }
	yOf := func(lane int) float64 {
		return marginTop + plotH - float64(lane+1)/float64(totalNodes)*plotH
	}
	laneH := plotH / float64(totalNodes)

	// Assign lanes: sweep events in time order, lowest-free-first.
	sorted := append([]metrics.GanttEntry(nil), entries...)
	sort.SliceStable(sorted, func(i, j int) bool {
		if sorted[i].Start != sorted[j].Start {
			return sorted[i].Start < sorted[j].Start
		}
		return sorted[i].Job < sorted[j].Job
	})
	free := make([]bool, totalNodes)
	for i := range free {
		free[i] = true
	}
	type active struct {
		lanes []int
		end   float64
	}
	var running []active
	release := func(now float64) {
		kept := running[:0]
		for _, a := range running {
			if a.end <= now {
				for _, l := range a.lanes {
					free[l] = true
				}
			} else {
				kept = append(kept, a)
			}
		}
		running = kept
	}
	seen := map[job.ID]bool{}
	for _, e := range sorted {
		release(e.Start)
		var lanes []int
		for l := 0; l < totalNodes && len(lanes) < e.Nodes; l++ {
			if free[l] {
				free[l] = false
				lanes = append(lanes, l)
			}
		}
		running = append(running, active{lanes: lanes, end: e.End})
		// Draw one rect per contiguous lane run.
		for _, runSeg := range contiguous(lanes) {
			x := xOf(e.Start)
			y := yOf(runSeg[len(runSeg)-1])
			h := laneH * float64(len(runSeg))
			b.rect(x, y, xOf(e.End)-x, h,
				jobColor(int(e.Job)),
				fmt.Sprintf("%s: %d nodes, %.1f–%.1f s", e.Name, e.Nodes, e.Start, e.End))
			// A later segment of an already-drawn job starts at a
			// reconfiguration: mark the boundary.
			if seen[e.Job] {
				b.line(x, y, x, y+h, "#b02222", 1.4)
			}
		}
		seen[e.Job] = true
	}

	// Overlay node outages: hatched gray bands on the failed node's lane.
	// The lane-assignment discipline above mirrors the allocator, so the
	// node index doubles as the lane index. Open outages run to the plot
	// edge.
	for _, o := range outages {
		if o.Node < 0 || o.Node >= totalNodes {
			continue
		}
		end := o.End
		if end < 0 || end > maxT {
			end = maxT
		}
		start := o.Start
		if start > maxT {
			continue
		}
		x := xOf(start)
		y := yOf(o.Node)
		b.shadedRect(x, y, xOf(end)-x, laneH, "#555", 0.55,
			fmt.Sprintf("node %d down, %.1f–%.1f s", o.Node, o.Start, end))
	}

	// Axes.
	b.line(marginLeft, marginTop, marginLeft, marginTop+plotH, "#222", 1)
	b.line(marginLeft, marginTop+plotH, marginLeft+plotW, marginTop+plotH, "#222", 1)
	for _, t := range niceTicks(maxT, 8) {
		x := xOf(t)
		b.line(x, marginTop+plotH, x, marginTop+plotH+4, "#222", 1)
		b.text(x, marginTop+plotH+18, 11, "middle", fmt.Sprintf("%.0f", t))
	}
	for _, v := range niceTicks(float64(totalNodes), 6) {
		y := marginTop + plotH - v/float64(totalNodes)*plotH
		b.line(marginLeft-4, y, marginLeft, y, "#222", 1)
		b.text(marginLeft-8, y+4, 11, "end", fmt.Sprintf("%.0f", v))
	}
	b.text(marginLeft+plotW/2, float64(height)-6, 12, "middle", "time [s]")
	b.text(14, marginTop+plotH/2, 12, "middle", "nodes")
	return b.finish(w)
}

// contiguous splits a sorted lane list into runs of consecutive lanes.
func contiguous(lanes []int) [][]int {
	if len(lanes) == 0 {
		return nil
	}
	var out [][]int
	cur := []int{lanes[0]}
	for _, l := range lanes[1:] {
		if l == cur[len(cur)-1]+1 {
			cur = append(cur, l)
		} else {
			out = append(out, cur)
			cur = []int{l}
		}
	}
	return append(out, cur)
}

// Timeline renders a step function (e.g. busy nodes over time) as a step
// line with filled area.
func Timeline(w io.Writer, tl *metrics.Timeline, yLabel string, yMax float64, title string) error {
	b := newSVG(title)

	pts := tl.Points()
	maxT := 1.0
	if len(pts) > 0 {
		maxT = pts[len(pts)-1].T
		if maxT <= 0 {
			maxT = 1
		}
	}
	if yMax <= 0 {
		for _, p := range pts {
			if p.V > yMax {
				yMax = p.V
			}
		}
		if yMax <= 0 {
			yMax = 1
		}
	}
	xOf := func(t float64) float64 { return marginLeft + t/maxT*plotW }
	yOf := func(v float64) float64 { return marginTop + plotH - v/yMax*plotH }

	// Step polyline.
	var line []point
	prevV := 0.0
	for _, p := range pts {
		line = append(line, point{xOf(p.T), yOf(prevV)})
		line = append(line, point{xOf(p.T), yOf(p.V)})
		prevV = p.V
	}
	line = append(line, point{xOf(maxT), yOf(prevV)})
	b.polyline(line, "#2060c0", 1.5)

	// Axes.
	b.line(marginLeft, marginTop, marginLeft, marginTop+plotH, "#222", 1)
	b.line(marginLeft, marginTop+plotH, marginLeft+plotW, marginTop+plotH, "#222", 1)
	for _, t := range niceTicks(maxT, 8) {
		x := xOf(t)
		b.line(x, marginTop+plotH, x, marginTop+plotH+4, "#222", 1)
		b.text(x, marginTop+plotH+18, 11, "middle", fmt.Sprintf("%.0f", t))
	}
	for _, v := range niceTicks(yMax, 6) {
		y := yOf(v)
		b.line(marginLeft-4, y, marginLeft, y, "#222", 1)
		b.text(marginLeft-8, y+4, 11, "end", fmt.Sprintf("%.0f", v))
	}
	b.text(marginLeft+plotW/2, float64(height)-6, 12, "middle", "time [s]")
	b.text(14, marginTop+plotH/2, 12, "middle", yLabel)
	return b.finish(w)
}
