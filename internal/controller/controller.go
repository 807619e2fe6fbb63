// Package controller implements Inca's centralized controller (paper
// Section 3.2.1): it accepts reports from distributed controllers over TCP,
// verifies the sending host against a hostname allowlist, and hands each
// report to the depot, timing how long the depot takes to accept it — the
// "response time" analyzed in Section 5.2, which Submit returns. The
// paper's controller wraps every report in an XML envelope addressed by its
// branch identifier because its depot sat behind a web-service call; this
// one does so only where the depot is not in its own process (or is made to
// look that way, as the paper's response-time reproductions do with
// Enveloped).
package controller

import (
	"fmt"
	"strings"
	"time"

	"inca/internal/branch"
	"inca/internal/depot"
	"inca/internal/envelope"
	"inca/internal/metrics"
	"inca/internal/wire"
)

// DepotClient abstracts the depot's web-service store interface: the
// in-process *depot.Depot, or an HTTP client to a depot elsewhere.
type DepotClient interface {
	StoreEnvelope(data []byte) (depot.Receipt, error)
}

// localDepot is the depot's own entry point, which the in-process
// *depot.Depot has beside StoreEnvelope: a report stored through it skips
// the envelope round trip.
type localDepot interface {
	Store(id branch.ID, reportXML []byte) (depot.Receipt, error)
}

// Enveloped hides every method of d but StoreEnvelope, so a controller over
// it builds an envelope for every report and the depot unpacks it, as in
// the paper's deployment — even when d is in the same process. The paper's
// response-time reproductions (Figure 9, Table 4) measure that round trip.
func Enveloped(d DepotClient) DepotClient { return enveloped{d} }

type enveloped struct{ DepotClient }

// Response is one depot interaction as Submit returns it, the unit of
// Table 4 and Figures 8 and 9.
type Response struct {
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
	// system; Attachment is the paper's planned improvement). Over a depot
	// in this process it decides only the fate of a report holding a
	// character outside XML's range: Body stores it with U+FFFD in its
	// place, Attachment hands the depot the raw bytes.
	Mode envelope.Mode
	// Keys holds per-host shared secrets for report authentication (the
	// paper's future-work security item). A host with a key registered
	// must sign its wire messages; hosts without keys fall back to the
	// allowlist-only check.
	Keys map[string][]byte
	// Metrics, when set, registers the controller's counters and
	// handle-latency histogram there; Counters reads the same instruments.
	Metrics *metrics.Registry
}

// Controller is the centralized controller.
type Controller struct {
	depot DepotClient
	local localDepot // depot's own Store, when it has one
	opt   Options
	allow map[string]bool

	acceptedC *metrics.Counter
	rejectedC *metrics.Counter
	errsC     *metrics.Counter
	handleH   *metrics.Histogram
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
		handleH:   reg.Histogram("inca_controller_handle_seconds", "Report handle latency: allowlist, wrap when enveloping, depot store.", nil),
	}
	c.local, _ = d.(localDepot)
	if len(opt.Allowlist) > 0 {
		c.allow = make(map[string]bool, len(opt.Allowlist))
		for _, h := range opt.Allowlist {
			c.allow[h] = true
		}
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

// Submit accepts one report: allowlist check, then the depot store. A depot
// in this process takes the report as it is whenever the envelope round
// trip would hand it the same identifier and bytes (envelope.Verbatim);
// otherwise, and for every other depot, the report travels in an envelope,
// so the depot stores the same bytes and answers with the same receipt
// (bar its Unpack time) and the same error either way. It returns the
// depot's response; the controller keeps none of them, only counts.
func (c *Controller) Submit(id branch.ID, hostname string, reportXML []byte) (Response, error) {
	handleStart := time.Now()
	defer c.handleH.ObserveSince(handleStart)
	if !c.Allowed(hostname) {
		c.rejectedC.Inc()
		return Response{}, fmt.Errorf("controller: host %q not in allowlist", hostname)
	}
	direct := c.local != nil && envelope.Verbatim(c.opt.Mode, id, reportXML)
	var env []byte
	var err error
	if !direct {
		if env, err = envelope.Encode(c.opt.Mode, id, reportXML); err != nil {
			return Response{}, err
		}
	}
	var rec depot.Receipt
	start := time.Now()
	if direct {
		rec, err = c.local.Store(id, reportXML)
	} else {
		rec, err = c.depot.StoreEnvelope(env)
	}
	elapsed := time.Since(start)
	if err != nil {
		c.errsC.Inc()
		return Response{}, fmt.Errorf("controller: depot: %w", err)
	}
	c.acceptedC.Inc()
	return Response{
		Branch:     id,
		ReportSize: len(reportXML),
		CacheSize:  rec.CacheSize,
		Elapsed:    elapsed,
		Unpack:     rec.Unpack,
		Insert:     rec.Insert,
	}, nil
}

// Handle adapts the controller to the wire protocol server, enforcing
// message authentication for hosts with registered keys.
func (c *Controller) Handle(m *wire.Message, remote string) *wire.Ack {
	if key, ok := c.opt.Keys[m.Hostname]; ok {
		if !wire.Verify(m, key) {
			c.rejectedC.Inc()
			return &wire.Ack{OK: false, Message: "controller: message signature invalid for host " + m.Hostname}
		}
	}
	// A received message's strings alias its whole frame (wire.Message),
	// and the identifier outlives the message in the cache index, so it is
	// parsed from a copy that pins no report.
	id, err := branch.Parse(strings.Clone(m.Branch))
	if err != nil {
		c.rejectedC.Inc()
		return &wire.Ack{OK: false, Message: err.Error()}
	}
	if _, err := c.Submit(id, m.Hostname, m.Report); err != nil {
		return &wire.Ack{OK: false, Message: err.Error()}
	}
	return wire.AckOK
}

// Submit implements agent.Sink for in-process deployments.
func (c *Controller) SubmitReport(id branch.ID, hostname string, reportXML []byte) error {
	_, err := c.Submit(id, hostname, reportXML)
	return err
}

// Counters returns the totals since the controller was built: accepted,
// rejected (allowlist, signature or malformed branch), depot errors.
func (c *Controller) Counters() (accepted, rejected, errs int) {
	return int(c.acceptedC.Value()), int(c.rejectedC.Value()), int(c.errsC.Value())
}
