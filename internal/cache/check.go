package cache

import (
	"fmt"

	"tlacache/internal/replacement"
)

// CheckConsistency verifies the cache's structural self-consistency:
// every valid line is aligned and stored in its home set, no set holds
// the same line twice, the valid-line count matches the lines held,
// and — when the replacement policy implements replacement.Checker —
// the per-set replacement metadata is well-formed. The audit mode (internal/hierarchy's Auditor) calls
// this for every cache in the hierarchy; it is O(lines x assoc).
func (c *Cache) CheckConsistency() error {
	checker, _ := c.policy.(replacement.Checker)
	held := 0
	for s := 0; s < c.numSets; s++ {
		base := s * c.assoc
		for w := 0; w < c.assoc; w++ {
			if c.tags[base+w] == invalidTag {
				// An empty way must carry no leftover line state: the
				// lookup scan trusts the tag word alone, so a stale
				// dirty bit or presence mask here would silently
				// resurface with the next fill.
				if c.flags[base+w] != 0 {
					return fmt.Errorf("cache %s: set %d way %d is empty but has flags %#x",
						c.cfg.Name, s, w, c.flags[base+w])
				}
				if c.presenceAtIndex(base+w) != 0 {
					return fmt.Errorf("cache %s: set %d way %d is empty but has presence %#x",
						c.cfg.Name, s, w, c.presenceAtIndex(base+w))
				}
				continue
			}
			held++
			addr := c.tags[base+w]
			if addr != c.LineAddr(addr) {
				return fmt.Errorf("cache %s: set %d way %d holds unaligned address %#x",
					c.cfg.Name, s, w, addr)
			}
			if home := c.SetIndex(addr); home != s {
				return fmt.Errorf("cache %s: line %#x stored in set %d but maps to set %d",
					c.cfg.Name, addr, s, home)
			}
			for v := 0; v < w; v++ {
				if c.tags[base+v] == addr {
					return fmt.Errorf("cache %s: line %#x duplicated in set %d (ways %d and %d)",
						c.cfg.Name, addr, s, v, w)
				}
			}
		}
		if checker != nil {
			if err := checker.CheckSet(s); err != nil {
				return fmt.Errorf("cache %s: %w", c.cfg.Name, err)
			}
		}
	}
	if held != c.valid {
		return fmt.Errorf("cache %s: holds %d lines but counts %d", c.cfg.Name, held, c.valid)
	}
	return nil
}
