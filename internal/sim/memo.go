package sim

import "sync"

// memo is the Runner's singleflight map: one memo, results by run key. The
// first caller of do for a key runs fn while later callers of that key block
// and share its outcome, so a key is computed once however many goroutines
// ask. A value stays for the memo's lifetime; a failure goes to the callers
// already waiting and is then forgotten, so the next caller tries again. The
// zero value is ready to use.
type memo[V any] struct {
	mu     sync.Mutex
	vals   map[string]V
	flight map[string]*flight[V]
}

// flight is one computation in progress that other callers can wait on.
type flight[V any] struct {
	done chan struct{}
	v    V
	err  error
}

// do returns key's value, computing it with fn unless it is already known
// or being computed.
func (m *memo[V]) do(key string, fn func() (V, error)) (V, error) {
	m.mu.Lock()
	if v, ok := m.vals[key]; ok {
		m.mu.Unlock()
		return v, nil
	}
	if f, ok := m.flight[key]; ok {
		m.mu.Unlock()
		<-f.done
		return f.v, f.err
	}
	if m.vals == nil {
		m.vals, m.flight = make(map[string]V), make(map[string]*flight[V])
	}
	f := &flight[V]{done: make(chan struct{})}
	m.flight[key] = f
	m.mu.Unlock()

	f.v, f.err = fn()

	m.mu.Lock()
	if f.err == nil {
		m.vals[key] = f.v
	}
	delete(m.flight, key)
	m.mu.Unlock()
	close(f.done)
	return f.v, f.err
}

// get returns key's finished value, if it has one.
func (m *memo[V]) get(key string) (V, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	v, ok := m.vals[key]
	return v, ok
}
