// Command hdsmtop is a live terminal dashboard for one hdsmtd instance,
// in the spirit of top(1): it polls GET /metrics/history for windowed
// throughput, latency quantiles and SLO burn status, follows the GET
// /events SSE firehose for a rolling tail of job activity, and redraws
// in place. It needs nothing beyond the standard library and a terminal
// that understands the two ANSI sequences "clear" and "home".
//
//	hdsmtop -addr http://localhost:8080
//
// For scripts and CI, -once -plain fetches a single snapshot and prints
// it without any escape codes:
//
//	hdsmtop -addr http://localhost:8080 -once -plain
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"sort"
	"strings"
	"sync"
	"syscall"
	"text/tabwriter"
	"time"

	"hdsmt/internal/client"
	"hdsmt/internal/server"
	"hdsmt/internal/telemetry"
	"hdsmt/internal/tshist"
)

func main() {
	var (
		addr     = flag.String("addr", "http://localhost:8080", "hdsmtd base URL")
		apiKey   = flag.String("api-key", "", "X-API-Key tenant header, if the server enforces quotas")
		interval = flag.Duration("interval", 2*time.Second, "dashboard refresh period")
		once     = flag.Bool("once", false, "fetch one snapshot, print it and exit (implies -plain)")
		plain    = flag.Bool("plain", false, "no ANSI escape codes: frames append instead of redrawing in place")
		eventsN  = flag.Int("events", 8, "recent events to keep in the activity pane")
	)
	flag.Parse()
	if *interval <= 0 {
		fmt.Fprintln(os.Stderr, "hdsmtop: -interval must be > 0")
		os.Exit(2)
	}

	var copts []client.Option
	if *apiKey != "" {
		copts = append(copts, client.WithAPIKey(*apiKey))
	}
	c := client.New(*addr, copts...)

	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancel()

	if *once {
		h, err := c.History(ctx)
		if err != nil {
			fmt.Fprintf(os.Stderr, "hdsmtop: %v\n", err)
			os.Exit(1)
		}
		render(os.Stdout, *addr, h, nil, true)
		return
	}

	// The activity pane tails the server-wide firehose in the background;
	// a torn stream reconnects inside Watch, and a drained server simply
	// stops producing events while the history poll keeps the panes fresh.
	// With no room for events there is nothing to follow.
	var tail *eventTail
	if *eventsN > 0 {
		tail = &eventTail{ring: telemetry.NewRing[server.Event](*eventsN)}
		go func() {
			_ = c.Watch(ctx, 0, func(ev server.Event) error {
				tail.add(ev)
				return nil
			})
		}()
	}

	t := time.NewTicker(*interval)
	defer t.Stop()
	for {
		h, err := c.History(ctx)
		if !*plain {
			fmt.Print("\x1b[2J\x1b[H") // clear screen, cursor home
		}
		if err != nil {
			fmt.Printf("hdsmtop: %s unreachable: %v\n", *addr, err)
		} else {
			render(os.Stdout, *addr, h, tail.events(), *plain)
		}
		select {
		case <-ctx.Done():
			return
		case <-t.C:
		}
	}
}

// eventTail is the bounded, concurrency-safe tail of the event feed.
type eventTail struct {
	mu   sync.Mutex
	ring telemetry.Ring[server.Event]
}

func (t *eventTail) add(ev server.Event) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.ring.Push(ev)
}

// events returns the retained events oldest first, nil while there are
// none (and on a nil tail) so render leaves the pane out.
func (t *eventTail) events() []server.Event {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.ring.Len() == 0 {
		return nil
	}
	return t.ring.Slice()
}

// render draws one full frame: SLO status, per-kind windowed stats,
// current gauges and the recent-event tail. The same renderer serves the
// live dashboard and -once -plain, so what CI greps is exactly what an
// operator sees.
func render(w io.Writer, addr string, h tshist.History, events []server.Event, plain bool) {
	fmt.Fprintf(w, "hdsmtop — %s   schema %s   %d samples @ %.0fs\n\n",
		addr, h.Schema, h.Samples, h.IntervalSeconds)

	// SLO pane: one row per objective, burn across every window.
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "SLO\tSTATUS\tOBJECTIVE\tBURN 1m\tBURN 5m\tBURN 30m")
	slos := append([]tshist.SLOStatus(nil), h.SLOs...)
	sort.Slice(slos, func(i, j int) bool { return slos[i].Name < slos[j].Name })
	for _, s := range slos {
		fmt.Fprintf(tw, "%s\t%s\t%.4g\t%.2f\t%.2f\t%.2f\n",
			s.Name, statusCell(s.Status, plain), s.Objective,
			s.Windows["1m"].Burn, s.Windows["5m"].Burn, s.Windows["30m"].Burn)
	}
	if len(slos) == 0 {
		fmt.Fprintln(tw, "(none declared)\t\t\t\t\t")
	}
	tw.Flush()
	fmt.Fprintln(w)

	// Traffic pane: requests and availability per window, then per-kind
	// throughput and latency quantiles.
	tw = tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "WINDOW\tREQS\t5xx\tAVAIL\tKIND\tJOBS\tRATE/s\tP50\tP95\tP99")
	for _, win := range tshist.Windows {
		ws, ok := h.Windows[win.Name]
		if !ok {
			continue
		}
		kinds := make([]string, 0, len(ws.Kinds))
		for k := range ws.Kinds {
			kinds = append(kinds, k)
		}
		sort.Strings(kinds)
		lead := fmt.Sprintf("%s\t%.0f\t%.0f\t%.4f", win.Name, ws.Requests, ws.ServerErrors, ws.Availability)
		if len(kinds) == 0 {
			fmt.Fprintf(tw, "%s\t—\t\t\t\t\t\n", lead)
			continue
		}
		for i, k := range kinds {
			ks := ws.Kinds[k]
			if i > 0 {
				lead = "\t\t\t" // window columns only on the first kind row
			}
			fmt.Fprintf(tw, "%s\t%s\t%d\t%.2f\t%s\t%s\t%s\n",
				lead, k, ks.Count, ks.Rate, secs(ks.P50), secs(ks.P95), secs(ks.P99))
		}
	}
	tw.Flush()
	fmt.Fprintln(w)

	// Gauge pane: every unlabeled gauge the registry carries, one line,
	// sorted so the layout never jumps between frames.
	names := make([]string, 0, len(h.Gauges))
	for name := range h.Gauges {
		names = append(names, name)
	}
	sort.Strings(names)
	parts := make([]string, 0, len(names))
	for _, name := range names {
		parts = append(parts, fmt.Sprintf("%s=%g", strings.TrimPrefix(name, "hdsmt_"), h.Gauges[name]))
	}
	if len(parts) > 0 {
		fmt.Fprintf(w, "gauges: %s\n\n", strings.Join(parts, "  "))
	}

	if events != nil {
		fmt.Fprintln(w, "RECENT EVENTS")
		if len(events) == 0 {
			fmt.Fprintln(w, "  (none yet)")
		}
		for _, ev := range events {
			detail := ev.Detail
			if detail != "" {
				detail = " " + detail
			}
			fmt.Fprintf(w, "  %-12s %-12s%s\n", ev.Job, ev.Type, detail)
		}
	}
}

// statusCell colors an SLO status for the live view; plain mode passes
// the word through untouched for grep-ability.
func statusCell(status string, plain bool) string {
	if plain {
		return status
	}
	switch status {
	case "ok":
		return "\x1b[32m" + status + "\x1b[0m"
	case "warn":
		return "\x1b[33m" + status + "\x1b[0m"
	case "page":
		return "\x1b[31;1m" + status + "\x1b[0m"
	}
	return status
}

// secs renders a latency in the tightest readable unit.
func secs(v float64) string {
	switch {
	case v <= 0:
		return "—"
	case v < 0.001:
		return fmt.Sprintf("%.0fµs", v*1e6)
	case v < 1:
		return fmt.Sprintf("%.1fms", v*1e3)
	default:
		return fmt.Sprintf("%.2fs", v)
	}
}
