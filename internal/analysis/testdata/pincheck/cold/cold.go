// Package cold mirrors (*Relation).pinBlock as it is today — it takes the
// column set to load and reports the bytes that read: the unpin closure is
// not the second-to-last result, and pincheck must find it by type rather
// than position, whatever the arguments.
package cold

import "errors"

func pinBlock(cols []int) (int, func(), int64, error) { return 0, func() {}, 0, nil }

func cond() bool { return false }

func handlePin() (int, error) {
	blk, unpin, _, err := pinBlock(nil)
	if err != nil {
		return 0, err
	}
	defer unpin()
	return blk, nil
}

func discardPin() error {
	_, _, loaded, err := pinBlock([]int{0}) // want "unpin closure returned by pinBlock is discarded"
	if err != nil {
		return err
	}
	_ = loaded
	return nil
}

func leakPin() error {
	_, unpin, _, err := pinBlock([]int{})
	if err != nil {
		return err
	}
	if cond() {
		return errors.New("lost") // want "returning with the pin taken"
	}
	unpin()
	return nil
}
