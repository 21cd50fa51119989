package vfs

import (
	"testing"
	"testing/quick"
)

func TestErrnoMessages(t *testing.T) {
	if ENOENT.Error() != "no such file or directory" {
		t.Fatalf("ENOENT message = %q", ENOENT.Error())
	}
	if Errno(9999).Error() != "errno 9999" {
		t.Fatalf("unknown errno message = %q", Errno(9999).Error())
	}
}

func TestToErrno(t *testing.T) {
	if ToErrno(nil) != OK {
		t.Fatal("nil should map to OK")
	}
	if ToErrno(EEXIST) != EEXIST {
		t.Fatal("Errno should pass through")
	}
	if ToErrno(errOther{}) != EIO {
		t.Fatal("unknown error should map to EIO")
	}
}

type errOther struct{}

func (errOther) Error() string { return "other" }

func TestOpenFlagsAccess(t *testing.T) {
	cases := []struct {
		f          OpenFlags
		read, writ bool
	}{
		{ORdonly, true, false},
		{OWronly, false, true},
		{ORdwr, true, true},
		{OWronly | OAppend | OCreat, false, true},
	}
	for _, c := range cases {
		if c.f.Readable() != c.read || c.f.Writable() != c.writ {
			t.Errorf("flags %#x: Readable=%v Writable=%v, want %v/%v",
				uint32(c.f), c.f.Readable(), c.f.Writable(), c.read, c.writ)
		}
	}
}

func TestFileTypeString(t *testing.T) {
	if TypeSymlink.String() != "symlink" || FileType(200).String() != "unknown" {
		t.Fatal("FileType.String mismatch")
	}
}

func TestSetattrMaskHas(t *testing.T) {
	m := SetMode | SetSize
	if !m.Has(SetMode) || !m.Has(SetSize) || m.Has(SetUID) {
		t.Fatal("SetattrMask.Has mismatch")
	}
}

func TestSplitPath(t *testing.T) {
	cases := map[string][]string{
		"/a/b/c":   {"a", "b", "c"},
		"a//b/./c": {"a", "b", "c"},
		"/":        {},
		"":         {},
		"..":       {".."},
	}
	for in, want := range cases {
		got := SplitPath(in)
		if len(got) != len(want) {
			t.Errorf("SplitPath(%q) = %v, want %v", in, got, want)
			continue
		}
		for i := range got {
			if got[i] != want[i] {
				t.Errorf("SplitPath(%q)[%d] = %q, want %q", in, i, got[i], want[i])
			}
		}
	}
}

func TestCapSet(t *testing.T) {
	s := NewCapSet(CapChown, CapFowner)
	if !s.Has(CapChown) || !s.Has(CapFowner) || s.Has(CapMknod) {
		t.Fatal("CapSet membership mismatch")
	}
	full := FullCapSet()
	for c := Capability(0); c < Capability(NumCapabilities); c++ {
		if !full.Has(c) {
			t.Fatalf("FullCapSet missing %d", c)
		}
	}
	if got := full.Intersect(NewCapSet(CapSysAdmin)); got != NewCapSet(CapSysAdmin) {
		t.Fatal("Intersect mismatch")
	}
}

func TestCredPermissions(t *testing.T) {
	attr := Attr{Mode: 0o640, UID: 1000, GID: 100}
	owner := User(1000, 100)
	group := User(2000, 100)
	other := User(3000, 300)
	root := Root()

	if !owner.MayRead(&attr) || !owner.MayWrite(&attr) {
		t.Fatal("owner should read+write 0640")
	}
	if owner.MayExec(&attr) {
		t.Fatal("owner must not exec 0640")
	}
	if !group.MayRead(&attr) || group.MayWrite(&attr) {
		t.Fatal("group should read but not write 0640")
	}
	if other.MayRead(&attr) || other.MayWrite(&attr) {
		t.Fatal("other should have no access to 0640")
	}
	if !root.MayRead(&attr) || !root.MayWrite(&attr) {
		t.Fatal("root bypasses DAC")
	}
	// Root cannot exec a file with no exec bits at all.
	if root.MayExec(&attr) {
		t.Fatal("root must not exec a 0640 file")
	}
	execAttr := Attr{Mode: 0o700, UID: 1000}
	if !root.MayExec(&execAttr) {
		t.Fatal("root may exec when any x bit set")
	}
}

func TestCredSupplementaryGroups(t *testing.T) {
	attr := Attr{Mode: 0o060, UID: 1, GID: 42}
	u := User(1000, 100, 41, 42)
	if !u.InGroup(42) || u.InGroup(43) {
		t.Fatal("InGroup mismatch")
	}
	if !u.MayRead(&attr) || !u.MayWrite(&attr) {
		t.Fatal("supplementary group should grant access")
	}
}

func TestCredClone(t *testing.T) {
	u := User(1, 2, 3, 4)
	c := u.Clone()
	c.Groups[0] = 99
	if u.Groups[0] == 99 {
		t.Fatal("Clone must deep-copy groups")
	}
}

func TestCredIsOwner(t *testing.T) {
	attr := Attr{UID: 5}
	if !User(5, 5).IsOwner(&attr) {
		t.Fatal("uid match should own")
	}
	if User(6, 6).IsOwner(&attr) {
		t.Fatal("non-owner without CAP_FOWNER")
	}
	privileged := &Cred{FSUID: 6, Caps: NewCapSet(CapFowner)}
	if !privileged.IsOwner(&attr) {
		t.Fatal("CAP_FOWNER should own")
	}
}

func TestACLRoundTrip(t *testing.T) {
	acl := ACL{Entries: []ACLEntry{
		{Tag: ACLUserObj, Perm: 7},
		{Tag: ACLUser, Perm: 5, ID: 1000},
		{Tag: ACLGroupObj, Perm: 5},
		{Tag: ACLMask, Perm: 5},
		{Tag: ACLOther, Perm: 0},
	}}
	raw := EncodeACL(acl)
	got, err := DecodeACL(raw)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Entries) != 5 {
		t.Fatalf("decoded %d entries, want 5", len(got.Entries))
	}
	for i := range acl.Entries {
		if got.Entries[i] != acl.Entries[i] {
			t.Fatalf("entry %d = %+v, want %+v", i, got.Entries[i], acl.Entries[i])
		}
	}
}

func TestACLDecodeRejectsGarbage(t *testing.T) {
	if _, err := DecodeACL([]byte{1, 2, 3}); ToErrno(err) != EINVAL {
		t.Fatal("short buffer must be EINVAL")
	}
	bad := EncodeACL(FromMode(0o644))
	bad[0] = 99 // wrong version
	if _, err := DecodeACL(bad); ToErrno(err) != EINVAL {
		t.Fatal("bad version must be EINVAL")
	}
}

func TestACLFromModeAndFind(t *testing.T) {
	acl := FromMode(0o754)
	if e := acl.Find(ACLUserObj); e == nil || e.Perm != 7 {
		t.Fatal("user obj perm mismatch")
	}
	if e := acl.Find(ACLGroupObj); e == nil || e.Perm != 5 {
		t.Fatal("group obj perm mismatch")
	}
	if e := acl.Find(ACLOther); e == nil || e.Perm != 4 {
		t.Fatal("other perm mismatch")
	}
	if acl.Find(ACLMask) != nil {
		t.Fatal("minimal ACL has no mask")
	}
}

func TestACLEncodeDecodeProperty(t *testing.T) {
	f := func(perms []uint16, ids []uint32) bool {
		n := len(perms)
		if len(ids) < n {
			n = len(ids)
		}
		if n > 20 {
			n = 20
		}
		acl := ACL{}
		for i := 0; i < n; i++ {
			acl.Entries = append(acl.Entries, ACLEntry{
				Tag: ACLUser, Perm: perms[i] & 7, ID: ids[i],
			})
		}
		got, err := DecodeACL(EncodeACL(acl))
		if err != nil {
			return false
		}
		if len(got.Entries) != len(acl.Entries) {
			return false
		}
		for i := range got.Entries {
			if got.Entries[i] != acl.Entries[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
