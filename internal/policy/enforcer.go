package policy

import (
	"sync"

	"cntr/internal/vfs"
)

// maxViolations bounds the enforcer's violation log; beyond it only the
// counters advance.
const maxViolations = 1024

// Violation is one off-profile operation the enforcer observed.
type Violation struct {
	Kind vfs.OpKind
	// Path is the operation's target path, empty when unknown.
	Path string
	// Denied reports whether the operation was rejected with EACCES
	// (false in audit mode).
	Denied bool
	// Reason distinguishes path/kind violations from ceiling breaches.
	Reason string
}

// Enforcer is a vfs.Interceptor that checks every operation against a
// Profile and denies off-profile operations with EACCES before they
// reach the filesystem. In audit mode it records the violation and lets
// the operation through instead — the dry-run for a freshly generated
// profile.
//
// Like a Run, the enforcer learns the inode→path mapping from the
// operations flowing past it (pathTable), so it needs no side channel
// into the enforced filesystem. Housekeeping kinds the kernel emits on
// its own behalf (forget, release, releasedir, flush, statfs) are always
// permitted: denying a release would leak the very handle an allowed
// open created.
type Enforcer struct {
	m     *Matcher
	audit bool

	// winReadMax/winWriteMax are the profile's windowed rate ceilings:
	// payload bytes per direction within any window of the last winOps
	// completed data operations. The window is clocked off the op
	// stream (see Profile.WindowOps), so enforcement is deterministic
	// under replay.
	winOps      int
	winReadMax  int64
	winWriteMax int64

	mu sync.Mutex
	pathTable
	win        windowTracker
	denials    int64
	audited    int64
	violations []Violation
}

// NewEnforcer compiles p for enforcement. With audit set, violations
// are recorded but never denied. It refuses a profile Load would refuse
// for its windowed ceilings.
func NewEnforcer(p *Profile, audit bool) (*Enforcer, error) {
	if err := p.checkWindow(); err != nil {
		return nil, err
	}
	return &Enforcer{
		m:           p.Compile(),
		audit:       audit,
		winOps:      int(p.WindowOps),
		winReadMax:  p.ReadBytesPerWindow,
		winWriteMax: p.WriteBytesPerWindow,
		win:         windowTracker{n: int(p.WindowOps)},
		pathTable:   newPathTable(),
	}, nil
}

// exempt reports the housekeeping kinds enforcement never blocks.
func exempt(k vfs.OpKind) bool {
	switch k {
	case vfs.KindForget, vfs.KindRelease, vfs.KindReleasedir, vfs.KindFlush, vfs.KindStatfs:
		return true
	}
	return false
}

// gateLocked decides one operation against the profile — one trie
// lookup, one ceiling check — records the outcome, and reports whether
// the operation must be denied. The sliding op-stream window advances
// only at completion (Intercept, after next()), never at admission.
// Caller holds e.mu.
func (e *Enforcer) gateLocked(info *vfs.OpInfo, dir string) (deny bool) {
	var reason string
	if !exempt(info.Kind) {
		if !e.m.allowsEntry(info.Kind, dir, info.Name) {
			reason = "off-profile"
		} else if info.Kind == vfs.KindRead && e.winReadMax > 0 && e.win.sumR >= e.winReadMax {
			reason = "read rate"
		} else if info.Kind == vfs.KindWrite && e.winWriteMax > 0 && e.win.sumW >= e.winWriteMax {
			reason = "write rate"
		}
	}
	if reason == "" {
		return false
	}
	denied := !e.audit
	if denied {
		e.denials++
	} else {
		e.audited++
	}
	if len(e.violations) < maxViolations {
		e.violations = append(e.violations, Violation{
			Kind: info.Kind, Path: entryPath(dir, info.Name),
			Denied: denied, Reason: reason,
		})
	}
	return denied
}

// Intercept implements vfs.Interceptor.
func (e *Enforcer) Intercept(info *vfs.OpInfo, next func() error) error {
	dir, deny := e.admit(info)
	if deny {
		return vfs.EACCES
	}
	err := next()
	e.complete(info, dir, err)
	return err
}

// admit decides an operation before it runs (gateLocked). Its target is
// the entry info.Name of the directory at dir (dir itself without a name;
// nothing when dir is empty, its path unknown). The string is built only
// where one is kept: every lookup of every path walk comes through here.
func (e *Enforcer) admit(info *vfs.OpInfo) (dir string, deny bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	dir = e.dir(info.Ino)
	return dir, e.gateLocked(info, dir)
}

// complete learns what a finished operation says about paths and
// advances the op-stream window by its payload.
func (e *Enforcer) complete(info *vfs.OpInfo, dir string, err error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.learn(info, dir, err)
	if e.winOps > 0 {
		switch info.Kind {
		case vfs.KindRead:
			e.win.push(int64(info.Bytes), 0)
		case vfs.KindWrite:
			e.win.push(0, int64(info.Bytes))
		}
	}
}

// Denials reports how many operations were rejected with EACCES.
func (e *Enforcer) Denials() int64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.denials
}

// Audited reports how many off-profile operations were let through in
// audit mode.
func (e *Enforcer) Audited() int64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.audited
}

// Violations returns the recorded violations (bounded at maxViolations).
func (e *Enforcer) Violations() []Violation {
	e.mu.Lock()
	defer e.mu.Unlock()
	return append([]Violation(nil), e.violations...)
}
