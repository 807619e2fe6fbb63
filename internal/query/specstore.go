package query

import (
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"
	"sync"

	"inca/internal/agent"
)

// SpecStore holds specification documents per resource — the server side
// of the central-configuration requirement (paper Section 2.3: "A central
// location for denoting these changes, as well as an automated mechanism
// for communicating them to participating resources, is needed").
type SpecStore struct {
	mu    sync.RWMutex
	specs map[string][]byte // resource → spec XML
	gen   map[string]int    // resource → generation counter
}

// NewSpecStore returns an empty store.
func NewSpecStore() *SpecStore {
	return &SpecStore{specs: make(map[string][]byte), gen: make(map[string]int)}
}

// Put validates and stores a specification document, bumping its
// generation.
func (s *SpecStore) Put(data []byte) (resource string, err error) {
	def, err := agent.ParseSpec(data)
	if err != nil {
		return "", err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.specs[def.Resource] = append([]byte(nil), data...)
	s.gen[def.Resource]++
	return def.Resource, nil
}

// Get returns the current document and generation for a resource.
func (s *SpecStore) Get(resource string) ([]byte, int, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	data, ok := s.specs[resource]
	if !ok {
		return nil, 0, false
	}
	return append([]byte(nil), data...), s.gen[resource], true
}

// Resources lists the resources with stored specifications.
func (s *SpecStore) Resources() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]string, 0, len(s.specs))
	for r := range s.specs {
		out = append(out, r)
	}
	sort.Strings(out)
	return out
}

// EnableSpecs attaches a spec store to the server, activating the /spec
// endpoints. Returns the store for direct use.
func (s *Server) EnableSpecs() *SpecStore {
	s.specs = NewSpecStore()
	return s.specs
}

func (b *local) handleSpec(w http.ResponseWriter, r *http.Request) {
	specs := b.srv.specs
	if specs == nil {
		http.Error(w, "specification distribution not enabled", http.StatusNotFound)
		return
	}
	switch r.Method {
	case http.MethodGet:
		resource := r.URL.Query().Get("resource")
		if resource == "" {
			w.Header().Set("Content-Type", "text/plain")
			io.WriteString(w, strings.Join(specs.Resources(), "\n"))
			return
		}
		data, gen, ok := specs.Get(resource)
		if !ok {
			http.Error(w, "no specification for "+resource, http.StatusNotFound)
			return
		}
		w.Header().Set("Content-Type", "text/xml")
		w.Header().Set("X-Inca-Spec-Generation", fmt.Sprint(gen))
		w.Write(data)
	case http.MethodPost:
		body, err := io.ReadAll(io.LimitReader(r.Body, 4<<20))
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		resource, err := specs.Put(body)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		w.Header().Set("Content-Type", "text/plain")
		fmt.Fprintf(w, "specification for %s stored\n", resource)
	default:
		w.Header().Set("Allow", "GET, POST")
		http.Error(w, "GET or POST required", http.StatusMethodNotAllowed)
	}
}

// FetchSpec retrieves a resource's specification document and generation.
func (c *Client) FetchSpec(resource string) ([]byte, int, error) {
	u := c.Base + "/spec?resource=" + resource
	resp, err := c.http().Get(u)
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, 0, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, 0, fmt.Errorf("query: spec: %s: %s", resp.Status, strings.TrimSpace(string(body)))
	}
	gen := 0
	fmt.Sscanf(resp.Header.Get("X-Inca-Spec-Generation"), "%d", &gen)
	return body, gen, nil
}

// UploadSpec stores a specification document on the server.
func (c *Client) UploadSpec(data []byte) error {
	resp, err := c.http().Post(c.Base+"/spec", "text/xml", strings.NewReader(string(data)))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		return fmt.Errorf("query: spec upload: %s: %s", resp.Status, strings.TrimSpace(string(body)))
	}
	return nil
}
