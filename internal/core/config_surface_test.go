package core

import (
	"fmt"
	"os"
	"reflect"
	"sort"
	"strings"
	"testing"

	"hermes/internal/admission"
	"hermes/internal/remote"
)

// TestConfigSurface pins every settable value of the library: each
// exported field reachable from Options (recursing into the Config and
// Policy structs it holds), admission.Config, the exported fields of
// remote.Server and the exported Set* methods of remote.Client. A change
// that adds or removes a knob shows it in testdata/config_surface.golden,
// which the failure message prints in full.
func TestConfigSurface(t *testing.T) {
	var lines []string
	seen := map[reflect.Type]bool{}
	var walk func(reflect.Type)
	walk = func(typ reflect.Type) {
		if seen[typ] {
			return
		}
		seen[typ] = true
		for i := 0; i < typ.NumField(); i++ {
			f := typ.Field(i)
			if !f.IsExported() {
				continue
			}
			lines = append(lines, fmt.Sprintf("%s.%s %s", typ, f.Name, f.Type))
			if inner := configStruct(f.Type); inner != nil {
				walk(inner)
			}
		}
	}
	walk(reflect.TypeOf(Options{}))
	walk(reflect.TypeOf(admission.Config{}))
	walk(reflect.TypeOf(remote.Server{}))
	client := reflect.ValueOf(&remote.Client{})
	for i := 0; i < client.NumMethod(); i++ {
		if name := client.Type().Method(i).Name; strings.HasPrefix(name, "Set") {
			lines = append(lines, fmt.Sprintf("remote.Client.%s %s", name, client.Method(i).Type()))
		}
	}
	sort.Strings(lines)
	got := strings.Join(lines, "\n") + "\n"

	want, err := os.ReadFile("testdata/config_surface.golden")
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("the config surface changed; a new knob must name the measurement that needs it, and the golden takes the new listing.\n-- got:\n%s-- want:\n%s", got, want)
	}
}

// configStruct returns the struct behind a field of type T or *T when T is
// one of the module's Config or Policy structs, else nil.
func configStruct(typ reflect.Type) reflect.Type {
	if typ.Kind() == reflect.Pointer {
		typ = typ.Elem()
	}
	if typ.Kind() != reflect.Struct || !strings.HasPrefix(typ.PkgPath(), "hermes/") {
		return nil
	}
	if name := typ.Name(); strings.HasSuffix(name, "Config") || strings.HasSuffix(name, "Policy") {
		return typ
	}
	return nil
}
