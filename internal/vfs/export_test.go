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
		Op: &Op{Cred: User(^uint32(0), ^uint32(0)), ID: ^uint64(0), ctx: ctx},
	})
}

// Add accumulates o into s.
func (s *OpStats) Add(o OpStats) {
	s.Lookups += o.Lookups
	s.Getattrs += o.Getattrs
	s.Setattrs += o.Setattrs
	s.Creates += o.Creates
	s.Opens += o.Opens
	s.Opendirs += o.Opendirs
	s.Reads += o.Reads
	s.Writes += o.Writes
	s.BytesRead += o.BytesRead
	s.BytesWrit += o.BytesWrit
	s.Fsyncs += o.Fsyncs
	s.Unlinks += o.Unlinks
	s.Renames += o.Renames
	s.Readdirs += o.Readdirs
	s.Xattrs += o.Xattrs
	s.Forgets += o.Forgets
	s.Releases += o.Releases
	s.Statfs += o.Statfs
	s.Access += o.Access
}

// Walk resolves path from dir within one filesystem, following symlinks
// in intermediate components and, if followLeaf is set, in the final
// component too. dir is also the root of the walk: ".." does not leave it
// and absolute symlink targets restart at it. Walk enforces the
// MaxSymlinkDepth limit with ELOOP, checks search permission on every
// traversed directory, and aborts with EINTR once op's context is
// canceled.
func Walk(fs FS, op *Op, dir Ino, path string, followLeaf bool) (WalkResult, error) {
	return walk(Pos{FS: fs, Ino: dir}, nil, op, path, followLeaf)
}
