package query

import (
	"bufio"
	"bytes"
	"context"
	"encoding/csv"
	"encoding/json"
	"encoding/xml"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/url"
	"strconv"
	"time"

	"inca/internal/branch"
	"inca/internal/depot"
	"inca/internal/rrd"
)

// Client is the data-consumer (and remote-controller) side of the
// web-service interface.
type Client struct {
	// Base is the server URL, e.g. "http://inca.sdsc.edu:8080".
	Base string
	// HTTP is the transport; nil uses http.DefaultClient.
	HTTP *http.Client
}

// NewClient returns a client for base.
func NewClient(base string) *Client { return &Client{Base: base} }

func (c *Client) http() *http.Client {
	if c.HTTP != nil {
		return c.HTTP
	}
	return http.DefaultClient
}

func (c *Client) get(path string, params url.Values) ([]byte, error) {
	u := c.Base + path
	if len(params) > 0 {
		u += "?" + params.Encode()
	}
	resp, err := c.http().Get(u)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, statusError(path, resp)
	}
	return readSized(resp.Body, resp.ContentLength, nil)
}

// statusError is a non-200 answer as an error carrying the status and at
// most the first errTextLimit bytes of the body.
func statusError(what string, resp *http.Response) error {
	body, _ := io.ReadAll(io.LimitReader(resp.Body, errTextLimit))
	return fmt.Errorf("query: %s: %s: %s", what, resp.Status, bytes.TrimSpace(body))
}

// errTextLimit bounds how much of an error response the client reads.
const errTextLimit = 4096

// maxPresized caps the buffer a declared Content-Length may size before a
// byte of the body has arrived. A longer declaration, or none, is read as
// it arrives.
const maxPresized = 8 << 20

// readSized reads a body of declared length n (-1: unknown) whole. A
// declared length up to maxPresized is read into one buffer of exactly
// that size — buf when its capacity suffices, else a new one — so the
// body crosses memory once instead of through io.ReadAll's doublings; a
// body that ends short of it is io.ErrUnexpectedEOF. Otherwise the body
// is read as it arrives, into buf's capacity, grown as it fills.
func readSized(r io.Reader, n int64, buf []byte) ([]byte, error) {
	if n < 0 || n > maxPresized {
		b := bytes.NewBuffer(buf[:0])
		_, err := b.ReadFrom(r)
		return b.Bytes(), err
	}
	if int64(cap(buf)) < n {
		buf = make([]byte, n)
	}
	body := buf[:n]
	if _, err := io.ReadFull(r, body); err != nil {
		return nil, err
	}
	return body, nil
}

// StoreEnvelope posts an envelope to the depot; it implements
// controller.DepotClient so a centralized controller can talk to a remote
// depot exactly as it would an in-process one.
func (c *Client) StoreEnvelope(data []byte) (depot.Receipt, error) {
	resp, err := c.http().Post(c.Base+"/store", "text/xml", bytes.NewReader(data))
	if err != nil {
		return depot.Receipt{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return depot.Receipt{}, statusError("store", resp)
	}
	body, err := readSized(resp.Body, resp.ContentLength, nil)
	if err != nil {
		return depot.Receipt{}, err
	}
	var xr xmlReceipt
	if err := xml.Unmarshal(body, &xr); err != nil {
		return depot.Receipt{}, fmt.Errorf("query: bad receipt: %w", err)
	}
	id, err := branch.Parse(xr.Branch)
	if err != nil {
		return depot.Receipt{}, fmt.Errorf("query: bad receipt branch: %w", err)
	}
	return depot.Receipt{
		Branch:     id,
		ReportSize: xr.ReportSize,
		CacheSize:  xr.CacheSize,
		Unpack:     time.Duration(xr.UnpackNs),
		Insert:     time.Duration(xr.InsertNs),
		Archive:    time.Duration(xr.ArchiveNs),
		Added:      xr.Added,
	}, nil
}

// UploadPolicy uploads an archival policy.
func (c *Client) UploadPolicy(p depot.Policy) error {
	data, err := depot.MarshalPolicy(p)
	if err != nil {
		return err
	}
	resp, err := c.http().Post(c.Base+"/policy", "text/xml", bytes.NewReader(data))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return statusError("policy", resp)
	}
	return nil
}

// Cache fetches the subtree at a branch identifier ("" for the whole
// cache — which, as the paper notes, tasks the consumer with a large
// amount of XML processing).
func (c *Client) Cache(branchID string) ([]byte, error) {
	return c.get("/cache", url.Values{"branch": {branchID}})
}

// Reports fetches the raw report list under a branch prefix.
func (c *Client) Reports(branchID string) ([]byte, error) {
	return c.get("/reports", url.Values{"branch": {branchID}})
}

// getConditional is get with ETag revalidation: pass the entity tag from
// a previous response and a 304 comes back as (nil, sameTag, true, nil)
// without transferring the body.
func (c *Client) getConditional(path string, params url.Values, etag string) (body []byte, newETag string, notModified bool, err error) {
	u := c.Base + path
	if len(params) > 0 {
		u += "?" + params.Encode()
	}
	req, err := http.NewRequest(http.MethodGet, u, nil)
	if err != nil {
		return nil, "", false, err
	}
	if etag != "" {
		req.Header.Set("If-None-Match", etag)
	}
	resp, err := c.http().Do(req)
	if err != nil {
		return nil, "", false, err
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusNotModified {
		io.Copy(io.Discard, resp.Body)
		return nil, etag, true, nil
	}
	if resp.StatusCode != http.StatusOK {
		return nil, "", false, statusError(path, resp)
	}
	if body, err = readSized(resp.Body, resp.ContentLength, nil); err != nil {
		return nil, "", false, err
	}
	return body, resp.Header.Get("ETag"), false, nil
}

// CacheConditional is Cache with ETag revalidation: the idiomatic poll
// loop keeps passing back the returned tag and only pays for a body when
// the depot has actually changed.
func (c *Client) CacheConditional(branchID, etag string) (body []byte, newETag string, notModified bool, err error) {
	return c.getConditional("/cache", url.Values{"branch": {branchID}}, etag)
}

// ReportsConditional is Reports with ETag revalidation.
func (c *Client) ReportsConditional(branchID, etag string) (body []byte, newETag string, notModified bool, err error) {
	return c.getConditional("/reports", url.Values{"branch": {branchID}}, etag)
}

// ErrFeedUnsupported reports that the server has no /feed endpoint, or
// cannot serve it yet. The router detects a feed-less shard with it.
var ErrFeedUnsupported = fmt.Errorf("query: server does not support /feed")

// FeedEvent is one parsed server-sent event from /feed.
type FeedEvent struct {
	// Type is "snapshot", "resume", "change", "status", or "error".
	Type string
	// Cursor is the event's stream position — persist it and pass it
	// back on reconnect.
	Cursor string
	// Data is the event body: a cache subtree (snapshot), a changeEvent
	// JSON document (change), or a status row (status).
	Data []byte
}

// FeedChange is the decoded body of a "change" event.
type FeedChange struct {
	Branch string `json:"branch"`
	Kind   string `json:"kind"`
	Report string `json:"report,omitempty"`
	Policy string `json:"policy,omitempty"`
}

// Change decodes a "change" event's body.
func (e FeedEvent) Change() (FeedChange, error) {
	var fc FeedChange
	if err := json.Unmarshal(e.Data, &fc); err != nil {
		return FeedChange{}, fmt.Errorf("query: bad change event: %w", err)
	}
	return fc, nil
}

// FeedStream is an open /feed subscription.
type FeedStream struct {
	resp *http.Response
	br   *bufio.Reader
	long []byte // a line that outgrew br's buffer, reused
}

// FeedSubscribe opens the server's change feed at a branch prefix.
// cursor resumes a previous subscription ("" for a fresh one); stream
// selects "status" for the live agreement stream ("" for depot changes).
// The first event is a "snapshot" (the subscriber was behind) or a
// "resume" (its cursor is current). Returns ErrFeedUnsupported when the
// server lacks the endpoint.
func (c *Client) FeedSubscribe(branchID, cursor, stream string) (*FeedStream, error) {
	return c.feedSubscribe(context.Background(), branchID, cursor, stream)
}

// feedSubscribe is FeedSubscribe under ctx: ending ctx abandons the
// request or, once it is open, ends the stream.
func (c *Client) feedSubscribe(ctx context.Context, branchID, cursor, stream string) (*FeedStream, error) {
	params := url.Values{"branch": {branchID}}
	if cursor != "" {
		params.Set("cursor", cursor)
	}
	if stream != "" {
		params.Set("stream", stream)
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.Base+"/feed?"+params.Encode(), nil)
	if err != nil {
		return nil, err
	}
	req.Header.Set("Accept", "text/event-stream")
	resp, err := c.http().Do(req)
	if err != nil {
		return nil, err
	}
	switch resp.StatusCode {
	case http.StatusOK:
	case http.StatusNotFound, http.StatusMethodNotAllowed,
		http.StatusNotImplemented, http.StatusServiceUnavailable:
		io.Copy(io.Discard, io.LimitReader(resp.Body, errTextLimit))
		resp.Body.Close()
		return nil, ErrFeedUnsupported
	default:
		err := statusError("feed", resp)
		resp.Body.Close()
		return nil, err
	}
	return &FeedStream{resp: resp, br: bufio.NewReader(resp.Body)}, nil
}

// Next blocks for the next event. Ping comments are skipped. Returns
// io.EOF (or the transport error) when the stream ends. Each event's Data
// is its own buffer, the one copy of the payload the read makes: lines are
// read in place and only data lines are copied, straight into Data.
func (fs *FeedStream) Next() (FeedEvent, error) {
	var ev FeedEvent
	sawData := false
	for {
		line, err := fs.readLine()
		if err != nil {
			return FeedEvent{}, err
		}
		switch {
		case len(line) == 0:
			if ev.Type == "" && !sawData {
				continue // stray separator
			}
			return ev, nil
		case line[0] == ':':
			continue // heartbeat comment
		case bytes.HasPrefix(line, []byte("event:")):
			ev.Type = feedEventType(bytes.TrimSpace(line[len("event:"):]))
		case bytes.HasPrefix(line, []byte("id:")):
			ev.Cursor = string(bytes.TrimSpace(line[len("id:"):]))
		case bytes.HasPrefix(line, []byte("data:")):
			d := line[len("data:"):]
			d = bytes.TrimPrefix(d, []byte(" "))
			if sawData {
				ev.Data = append(ev.Data, '\n')
			}
			ev.Data = append(ev.Data, d...)
			sawData = true
		}
	}
}

// readLine returns the next line without its trailing CRs and LF. It
// aliases the reader's buffer (or fs.long), so it is valid until the next
// read.
func (fs *FeedStream) readLine() ([]byte, error) {
	if cap(fs.long) > 64<<10 {
		fs.long = nil // a snapshot's line is not held for the stream's life
	}
	line, err := fs.br.ReadSlice('\n')
	if err == bufio.ErrBufferFull {
		fs.long = append(fs.long[:0], line...)
		for err == bufio.ErrBufferFull {
			line, err = fs.br.ReadSlice('\n')
			fs.long = append(fs.long, line...)
		}
		line = fs.long
	}
	if err != nil {
		return nil, err
	}
	return bytes.TrimRight(line, "\r\n"), nil
}

// feedEventType returns an event name, without allocating for the ones
// the server sends.
func feedEventType(b []byte) string {
	for _, t := range [...]string{"change", "snapshot", "resume", "status", "error"} {
		if string(b) == t {
			return t
		}
	}
	return string(b)
}

// Close terminates the subscription.
func (fs *FeedStream) Close() error { return fs.resp.Body.Close() }

// ArchivePoint is one sample of a fetched archive series.
type ArchivePoint struct {
	Time  time.Time
	Value float64
}

// Archive fetches an archived series.
func (c *Client) Archive(branchID, policy string, cf rrd.CF, start, end time.Time) ([]ArchivePoint, error) {
	body, err := c.get("/archive", url.Values{
		"branch": {branchID},
		"policy": {policy},
		"cf":     {cf.String()},
		"start":  {start.Format(time.RFC3339)},
		"end":    {end.Format(time.RFC3339)},
	})
	if err != nil {
		return nil, err
	}
	rows, err := csv.NewReader(bytes.NewReader(body)).ReadAll()
	if err != nil {
		return nil, fmt.Errorf("query: bad archive csv: %w", err)
	}
	var out []ArchivePoint
	for i, row := range rows {
		if i == 0 || len(row) != 2 {
			continue // header
		}
		ts, err := time.Parse(time.RFC3339, row[0])
		if err != nil {
			return nil, fmt.Errorf("query: bad archive time %q: %w", row[0], err)
		}
		v := math.NaN()
		if row[1] != "nan" {
			if v, err = strconv.ParseFloat(row[1], 64); err != nil {
				return nil, fmt.Errorf("query: bad archive value %q: %w", row[1], err)
			}
		}
		out = append(out, ArchivePoint{Time: ts, Value: v})
	}
	return out, nil
}

// Graph fetches the ASCII graph of an archived series.
func (c *Client) Graph(branchID, policy string, cf rrd.CF, start, end time.Time, title, ylabel string) (string, error) {
	body, err := c.get("/graph", url.Values{
		"branch": {branchID},
		"policy": {policy},
		"cf":     {cf.String()},
		"start":  {start.Format(time.RFC3339)},
		"end":    {end.Format(time.RFC3339)},
		"title":  {title},
		"ylabel": {ylabel},
	})
	if err != nil {
		return "", err
	}
	return string(body), nil
}

// Stats fetches depot counters.
func (c *Client) Stats() (depot.Stats, error) {
	body, err := c.get("/stats", nil)
	if err != nil {
		return depot.Stats{}, err
	}
	var xs xmlStats
	if err := xml.Unmarshal(body, &xs); err != nil {
		return depot.Stats{}, err
	}
	return depot.Stats{
		Received: xs.Received, Bytes: xs.Bytes,
		CacheSize: xs.CacheSize, CacheCount: xs.CacheCount, Archives: xs.Archives,
	}, nil
}
