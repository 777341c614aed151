package fixture

// Store mimics the engine APIs on the curated errcheckdb list.
type Store struct{}

func (s *Store) Acquire() error          { return nil }
func (s *Store) LoadAttrs() (int, error) { return 0, nil }
func (s *Store) Release()                {}

// Gauge.Acquire returns no error: the analyzer must stay silent on it.
type Gauge struct{}

func (g *Gauge) Acquire() {}

func bare(s *Store) {
	s.Acquire() // want "error result of Acquire is discarded"
}

func blank(s *Store) {
	_ = s.Acquire() // want "assigned to the blank identifier"
}

func blankMulti(s *Store) int {
	blk, _ := s.LoadAttrs() // want "assigned to the blank identifier"
	return blk
}

func deferred(s *Store) {
	defer s.Acquire() // want "deferred Acquire discards its error"
}

func inGoroutine(s *Store) {
	go s.Acquire() // want "goroutine call to Acquire discards its error"
}

func handled(s *Store) error {
	if err := s.Acquire(); err != nil {
		return err
	}
	defer s.Release()
	blk, err := s.LoadAttrs()
	if err != nil {
		return err
	}
	_ = blk
	return nil
}

func sameNameNoError(g *Gauge) {
	g.Acquire()
}

func justified(s *Store) {
	s.Acquire() //dbvet:ignore fixture: error intentionally dropped in teardown
}
