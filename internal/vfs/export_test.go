package vfs

import "context"

// PoisonRecycled switches the recycling guard rail on or off for the
// tests that drive whole stacks from package vfs_test (see poison): a
// released Op and a released chain frame read as a request nobody made —
// id ^0, an unknown user, interrupted, names of 0xDB.
func PoisonRecycled(on bool) {
	if !on {
		poison.Store(nil)
		return
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	const name = "\xDB\xDB\xDB\xDB"
	poison.Store(&OpInfo{
		Kind: KindAny, Ino: ^Ino(0), Name: name, Bytes: -1, ResultIno: ^Ino(0),
		NewParentIno: ^Ino(0), NewName: name,
		Op: &Op{Cred: User(^uint32(0), ^uint32(0)), ID: ^uint64(0), PID: ^uint32(0), ctx: ctx},
	})
}
