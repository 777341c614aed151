package fixture

import "errors"

// View mimics storage.ChunkView: Acquire(cols) error pins, Release() unpins.
type View struct{}

func (v *View) Acquire(cols []int) error { return nil }
func (v *View) Release()                 {}

// pinBlock mimics (*Relation).pinBlock: the func() result releases the pin.
func pinBlock() (int, func(), error) { return 0, func() {}, nil }

func cond() bool { return false }

func deferredRelease(v *View) error {
	if err := v.Acquire(nil); err != nil {
		return err
	}
	defer v.Release()
	return nil
}

func manualRelease(v *View) error {
	if err := v.Acquire(nil); err != nil {
		return err
	}
	if cond() {
		v.Release()
		return errors.New("early out")
	}
	v.Release()
	return nil
}

func leakOnReturn(v *View) error {
	if err := v.Acquire(nil); err != nil {
		return err
	}
	if cond() {
		return errors.New("oops") // want "returning with the pin taken"
	}
	v.Release()
	return nil
}

func leakInLoop(vs []*View) {
	for _, v := range vs {
		if err := v.Acquire(nil); err != nil { // want "not released before the iteration ends"
			continue
		}
	}
}

func releasedInLoop(vs []*View) {
	for _, v := range vs {
		if err := v.Acquire(nil); err != nil {
			continue
		}
		v.Release()
	}
}

func discardUnpin() {
	_, _, err := pinBlock() // want "unpin closure returned by pinBlock is discarded"
	_ = err
}

func handlePin() (int, error) {
	blk, unpin, err := pinBlock()
	if err != nil {
		return 0, err
	}
	defer unpin()
	return blk, nil
}

// holder receives ownership of the unpin closure; tracking must stop at
// the store, mirroring ChunkView.Acquire stashing v.release = unpin.
type holder struct{ release func() }

func transfer(h *holder) error {
	_, unpin, err := pinBlock()
	if err != nil {
		return err
	}
	h.release = unpin
	return nil
}

func returnsUnpin() (func(), error) {
	_, unpin, err := pinBlock()
	if err != nil {
		return nil, err
	}
	return unpin, nil
}
