package core

import (
	"iter"
	"math/bits"
	"slices"

	"dqmx/internal/mutex"
	"dqmx/internal/wire"
)

// siteSet is a set of site ids kept as a bitmap. Sites 0..63 live in w0, so
// up to N = 64 a set is one word and a Site copy copies it; larger ids spill
// into more, which a clone must copy. Ids outside [0, maxSetSite) are never
// members, so a corrupt id from a peer cannot grow a set without bound.
type siteSet struct {
	w0   uint64
	more []uint64 // word k holds sites 64(k+1) .. 64(k+2)−1
}

const maxSetSite = 1 << 16

// word returns the word that holds id, growing the set to it when grow is
// set, or nil when there is none.
func (s *siteSet) word(id mutex.SiteID, grow bool) *uint64 {
	k := int(id/64) - 1
	switch {
	case id < 0 || id >= maxSetSite:
		return nil
	case k < 0:
		return &s.w0
	case k >= len(s.more) && !grow:
		return nil
	case k >= len(s.more):
		s.more = append(s.more, make([]uint64, k+1-len(s.more))...)
	}
	return &s.more[k]
}

func (s *siteSet) has(id mutex.SiteID) bool {
	w := s.word(id, false)
	return w != nil && *w&(1<<(id%64)) != 0
}

func (s *siteSet) add(id mutex.SiteID) {
	if w := s.word(id, true); w != nil {
		*w |= 1 << (id % 64)
	}
}

func (s *siteSet) remove(id mutex.SiteID) {
	if w := s.word(id, false); w != nil {
		*w &^= 1 << (id % 64)
	}
}

func (s *siteSet) clear() {
	s.w0 = 0
	clear(s.more)
}

// all yields the members in ascending order. The loop body may remove the
// member it is visiting.
func (s *siteSet) all() iter.Seq[mutex.SiteID] {
	return func(yield func(mutex.SiteID) bool) {
		for k, w := 0, s.w0; ; k, w = k+1, s.more[k] {
			for ; w != 0; w &= w - 1 {
				if !yield(mutex.SiteID(64*k + bits.TrailingZeros64(w))) {
					return
				}
			}
			if k == len(s.more) {
				return
			}
		}
	}
}

func (s siteSet) clone() siteSet {
	s.more = slices.Clone(s.more)
	return s
}

// appendCanonical encodes the set as its words up to the last non-zero one,
// so equal sets encode equally however many words they have grown.
func (s *siteSet) appendCanonical(b []byte) []byte {
	n := len(s.more)
	for n > 0 && s.more[n-1] == 0 {
		n--
	}
	b = wire.AppendUint(b, s.w0)
	return appendAll(b, s.more[:n], wire.AppendUint)
}
