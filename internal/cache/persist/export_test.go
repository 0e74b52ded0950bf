package persist

import (
	"sort"
	"strings"

	"repro/internal/cache"
)

// Keys returns the indexed keys, sorted by their string form.
func (s *Store[V]) Keys() []cache.Key {
	var ks []cache.Key
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		for k := range sh.idx {
			ks = append(ks, k)
		}
		sh.mu.Unlock()
	}
	sort.Slice(ks, func(a, b int) bool {
		return strings.Compare(ks[a].String(), ks[b].String()) < 0
	})
	return ks
}
