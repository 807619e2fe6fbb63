// Package controller implements Inca's centralized controller (paper
// Section 3.2.1): it accepts reports from distributed controllers over TCP,
// verifies the sending host against a hostname allowlist, wraps each report
// in an XML envelope addressed by its branch identifier, and forwards the
// envelope to the depot, recording how long the depot takes to accept it —
// the "response time" analyzed in Section 5.2.
package controller

import (
	"fmt"
	"sync"
	"time"

	"inca/internal/branch"
	"inca/internal/depot"
	"inca/internal/envelope"
	"inca/internal/metrics"
	"inca/internal/wire"
)

// DepotClient abstracts the depot's web-service store interface: the
// in-process *depot.Depot in simulations, an HTTP client in deployments.
type DepotClient interface {
	StoreEnvelope(data []byte) (depot.Receipt, error)
}

// Response is one recorded depot interaction, the unit of Table 4 and
// Figure 9.
type Response struct {
	At         time.Time
	Branch     branch.ID
	ReportSize int
	CacheSize  int
	// Elapsed is the full time the controller waited on the depot.
	Elapsed time.Duration
	// Unpack and Insert are the depot's phase timings.
	Unpack, Insert time.Duration
}

// Options configures a controller.
type Options struct {
	// Allowlist is the set of hostnames allowed to submit reports. Empty
	// means allow any host (useful in tests); the paper's deployment
	// always configured a list.
	Allowlist []string
	// Mode selects the envelope encoding (Body reproduces the deployed
	// system; Attachment is the paper's planned improvement).
	Mode envelope.Mode
	// Clock stamps response log entries; nil uses real time only for
	// stamps (durations are always wall-clock measurements).
	Now func() time.Time
	// Keys holds per-host shared secrets for report authentication (the
	// paper's future-work security item). A host with a key registered
	// must sign its wire messages; hosts without keys fall back to the
	// allowlist-only check.
	Keys map[string][]byte
	// MaxResponses bounds the in-memory response log. Once that many
	// responses have been recorded the oldest entries are overwritten in
	// ring-buffer fashion, so a long-running controller no longer grows
	// without bound. 0 keeps the unbounded log the experiments use.
	// Counters' accepted total keeps counting evicted entries.
	MaxResponses int
	// Metrics, when set, registers the controller's monotonic counters and
	// envelope handle-latency histogram there. The registry counters never
	// reset — unlike Counters(), whose accepted total ResetResponses()
	// clears between experiment phases — so the two surfaces deliberately
	// stay separate instruments.
	Metrics *metrics.Registry
}

// Controller is the centralized controller.
type Controller struct {
	depot DepotClient
	opt   Options
	allow map[string]bool

	acceptedC *metrics.Counter
	rejectedC *metrics.Counter
	errsC     *metrics.Counter
	handleH   *metrics.Histogram

	mu        sync.Mutex
	responses []Response // ring buffer when opt.MaxResponses > 0
	head      int        // oldest entry once the ring has wrapped
	accepted  int        // accepted since the last reset, evictions included
	rejected  int
	errs      int
}

// New creates a controller forwarding to d.
func New(d DepotClient, opt Options) *Controller {
	reg := opt.Metrics
	c := &Controller{
		depot:     d,
		opt:       opt,
		acceptedC: reg.Counter("inca_controller_accepted_total", "Reports stored in the depot."),
		rejectedC: reg.Counter("inca_controller_rejected_total", "Reports refused: allowlist, signature or malformed branch."),
		errsC:     reg.Counter("inca_controller_depot_errors_total", "Depot store failures."),
		handleH:   reg.Histogram("inca_controller_handle_seconds", "Envelope handle latency: allowlist, wrap, depot store.", nil),
	}
	if len(opt.Allowlist) > 0 {
		c.allow = make(map[string]bool, len(opt.Allowlist))
		for _, h := range opt.Allowlist {
			c.allow[h] = true
		}
	}
	if c.opt.Now == nil {
		c.opt.Now = time.Now
	}
	return c
}

// Allowed reports whether a host may submit reports.
func (c *Controller) Allowed(host string) bool {
	if c.allow == nil {
		return true
	}
	return c.allow[host]
}

// reject counts one refused report on both surfaces, so that wire messages
// = accepted + rejected + depot errors holds whatever the refusal was.
func (c *Controller) reject() {
	c.mu.Lock()
	c.rejected++
	c.mu.Unlock()
	c.rejectedC.Inc()
}

// Submit accepts one report: allowlist check, envelope wrap, depot
// forward. It returns the recorded response.
func (c *Controller) Submit(id branch.ID, hostname string, reportXML []byte) (Response, error) {
	handleStart := time.Now()
	defer c.handleH.ObserveSince(handleStart)
	if !c.Allowed(hostname) {
		c.reject()
		return Response{}, fmt.Errorf("controller: host %q not in allowlist", hostname)
	}
	env, err := envelope.Encode(c.opt.Mode, id, reportXML)
	if err != nil {
		return Response{}, err
	}
	start := time.Now()
	rec, err := c.depot.StoreEnvelope(env)
	elapsed := time.Since(start)
	if err != nil {
		c.mu.Lock()
		c.errs++
		c.mu.Unlock()
		c.errsC.Inc()
		return Response{}, fmt.Errorf("controller: depot: %w", err)
	}
	resp := Response{
		At:         c.opt.Now(),
		Branch:     id,
		ReportSize: len(reportXML),
		CacheSize:  rec.CacheSize,
		Elapsed:    elapsed,
		Unpack:     rec.Unpack,
		Insert:     rec.Insert,
	}
	c.acceptedC.Inc()
	c.mu.Lock()
	c.accepted++
	if max := c.opt.MaxResponses; max > 0 && len(c.responses) >= max {
		c.responses[c.head] = resp
		c.head = (c.head + 1) % max
	} else {
		c.responses = append(c.responses, resp)
	}
	c.mu.Unlock()
	return resp, nil
}

// Handle adapts the controller to the wire protocol server, enforcing
// message authentication for hosts with registered keys.
func (c *Controller) Handle(m *wire.Message, remote string) *wire.Ack {
	if key, ok := c.opt.Keys[m.Hostname]; ok {
		if !wire.Verify(m, key) {
			c.reject()
			return &wire.Ack{OK: false, Message: "controller: message signature invalid for host " + m.Hostname}
		}
	}
	id, err := branch.Parse(m.Branch)
	if err != nil {
		c.reject()
		return &wire.Ack{OK: false, Message: err.Error()}
	}
	if _, err := c.Submit(id, m.Hostname, m.Report); err != nil {
		return &wire.Ack{OK: false, Message: err.Error()}
	}
	return &wire.Ack{OK: true}
}

// Submit implements agent.Sink for in-process deployments.
func (c *Controller) SubmitReport(id branch.ID, hostname string, reportXML []byte) error {
	_, err := c.Submit(id, hostname, reportXML)
	return err
}

// Responses returns a copy of the response log in arrival order. With
// MaxResponses set this is the most recent window; older entries have
// been evicted.
func (c *Controller) Responses() []Response {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]Response, 0, len(c.responses))
	out = append(out, c.responses[c.head:]...)
	out = append(out, c.responses[:c.head]...)
	return out
}

// ResetResponses clears the response log and the accepted total (between
// experiment phases).
func (c *Controller) ResetResponses() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.responses = nil
	c.head = 0
	c.accepted = 0
}

// Counters returns totals: accepted, rejected (allowlist, signature or
// malformed branch), depot errors.
// Accepted counts every stored report since the last reset, including
// responses a bounded log has since evicted.
func (c *Controller) Counters() (accepted, rejected, errs int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.accepted, c.rejected, c.errs
}
