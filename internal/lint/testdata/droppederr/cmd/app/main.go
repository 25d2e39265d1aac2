// Command app is a droppederr-pass fixture CLI.
package main

import (
	"fmt"
	"os"
	"strings"
)

func main() {
	os.Setenv("MODE", "fast") // want: discarded error
	f, err := os.Open("input.txt")
	if err != nil {
		fmt.Println("no input")
		return
	}
	defer f.Close() // fine: deferred cleanup is accepted idiom
	f.Close()       // want: discarded error
	_ = f.Close()   // fine: explicit, greppable discard

	var b strings.Builder
	b.WriteString("ok")     // fine: Builder writes never fail
	fmt.Println(b.String()) // fine: fmt print family is fire-and-forget
}
